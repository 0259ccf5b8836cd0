"""Figures 15-24: bound curves vs simulation across initial valuations.

Appendix F of the paper plots, for each of the ten benchmarks, the PUCS
upper bound, the PLCS lower bound and the simulated mean cost over ~20
initial valuations.  This module regenerates those series and renders
them as ASCII plots (plus the raw numbers, which the test-suite checks
for the bracketing property UB >= mean >= LB).

Every sweep point is a request, all run as one batch.  A program with
nondeterminism takes a request pair per point: one bounds it as written,
the other simulates its ``prob(0.5)`` variant (as in the paper's second
simulation experiment), so every figure has a simulation series.

Run as ``python -m repro.experiments.figures [--points K] [--runs N]
[--seed S] [--jobs N]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..batch import AnalysisRequest
from ..programs import TABLE3_BENCHMARKS, Benchmark
from .common import ascii_plot, batch_reports, driver_cli, fmt, render_table

__all__ = ["FigureSeries", "build_figure", "build_all_figures", "main"]

#: Paper figure number per benchmark (Figures 15-24 in order).
FIGURE_NUMBERS = {
    "bitcoin_mining": 15,
    "bitcoin_pool": 16,
    "queuing_network": 17,
    "species_fight": 18,
    "simple_loop": 19,
    "nested_loop": 20,
    "random_walk": 21,
    "robot_2d": 22,
    "goods_discount": 23,
    "pollutant_disposal": 24,
}


@dataclass
class FigureSeries:
    """The three series of one Appendix-F figure."""

    benchmark: str
    figure_number: int
    sweep_var: str
    xs: List[float]
    upper: List[Optional[float]]
    lower: List[Optional[float]]
    sim_mean: List[Optional[float]]
    sim_stderr: List[Optional[float]] = None

    def bracketing_violations(self, slack: float = 0.0, z: float = 5.0) -> List[float]:
        """Sweep points where the simulated mean escapes the bounds.

        The tolerance at each point is ``slack + z`` standard errors of
        that point's Monte-Carlo mean.
        """
        bad = []
        stderrs = self.sim_stderr or [0.0] * len(self.xs)
        for x, ub, lb, mean, se in zip(self.xs, self.upper, self.lower, self.sim_mean, stderrs):
            if mean is None:
                continue
            tol = slack + z * (se or 0.0)
            if ub is not None and mean > ub + tol:
                bad.append(x)
            elif lb is not None and mean < lb - tol:
                bad.append(x)
        return bad


def _sweep_requests(bench: Benchmark, points: int, runs: int, seed: int):
    """The sweep points of ``bench``'s figure (each its own anchor
    ``v*``, as in the paper's plots) and their requests in order: one
    per point, or a bounding one then a simulating one."""
    if bench.sweep_var is None or bench.sweep_range is None:
        raise ValueError(f"benchmark {bench.name} has no figure sweep configured")
    lo, hi = bench.sweep_range
    xs = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    simulation = {"simulate_runs": runs, "simulate_seed": seed}
    simulation["simulate_max_steps"] = bench.max_sim_steps
    if bench.has_nondeterminism:
        simulation["nondet_prob"] = 0.5
    requests = []
    for x in xs:
        init = {**bench.init, bench.sweep_var: x}
        if bench.has_nondeterminism:
            requests.append(AnalysisRequest.for_benchmark(bench, init=init))
        requests.append(AnalysisRequest.for_benchmark(bench, init=init, **simulation))
    return xs, requests


def _series(bench: Benchmark, xs: List[float], runs: int, reports) -> FigureSeries:
    step = 2 if bench.has_nondeterminism else 1
    bounds, sims = reports[::step], reports[step - 1 :: step]
    return FigureSeries(
        benchmark=bench.name,
        figure_number=FIGURE_NUMBERS.get(bench.name, 0),
        sweep_var=bench.sweep_var,
        xs=xs,
        upper=[r.upper_value for r in bounds],
        lower=[r.lower_value for r in bounds],
        sim_mean=[r.sim_mean for r in sims],
        sim_stderr=[_stderr(r, runs) for r in sims],
    )


def _stderr(report, runs: int) -> Optional[float]:
    """``SimulationStats.stderr()`` of ``report``'s simulation."""
    if report.sim_std is None:
        return None
    terminated = runs - report.sim_truncated
    return report.sim_std / math.sqrt(terminated) if terminated > 1 else math.inf


def build_figure(
    bench: Benchmark, points: int = 20, runs: int = 200, seed: int = 0, analyzer=None
) -> FigureSeries:
    """Sweep the benchmark's figure variable and collect the series."""
    return build_all_figures(points, runs, seed, [bench], analyzer)[0]


def build_all_figures(
    points: int = 20, runs: int = 200, seed: int = 0, benchmarks=None, analyzer=None
) -> List[FigureSeries]:
    """The series of every figure, all sweep points run as one batch."""
    benchmarks = benchmarks or TABLE3_BENCHMARKS
    sweeps = [_sweep_requests(bench, points, runs, seed) for bench in benchmarks]
    reports = iter(batch_reports([r for _, requests in sweeps for r in requests], analyzer))
    return [
        _series(bench, xs, runs, [next(reports) for _ in requests])
        for bench, (xs, requests) in zip(benchmarks, sweeps)
    ]


def render_figure(series: FigureSeries) -> str:
    title = f"Figure {series.figure_number}: {series.benchmark} (sweep {series.sweep_var})"
    plot = ascii_plot(
        series.xs,
        [series.upper, series.lower, series.sim_mean],
        labels=["PUCS upper", "PLCS lower", "simulated mean"],
        title=title,
    )
    rows = [
        [fmt(x), fmt(ub), fmt(lb), fmt(mean)]
        for x, ub, lb, mean in zip(series.xs, series.upper, series.lower, series.sim_mean)
    ]
    table = render_table([series.sweep_var, "PUCS", "PLCS", "sim mean"], rows)
    return f"{plot}\n\n{table}"


def main(points: int = 20, runs: int = 200, seed: int = 0, analyzer=None) -> str:
    chunks = []
    for series in build_all_figures(points=points, runs=runs, seed=seed, analyzer=analyzer):
        chunks.append(render_figure(series))
        chunks.append("")
    return "\n".join(chunks)


if __name__ == "__main__":
    driver_cli(main, __doc__, points=20, runs=200, seed=0)
