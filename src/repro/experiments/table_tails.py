"""Tail-bound validation table: Azuma bounds vs. empirical frequencies.

A new workload on top of the paper's tables: for representative Table 2
benchmarks and Table 5 coin-flip variants, derive the concentration
bound ``P[cost >= E + t, T <= n] <= exp(-t^2/(2 c^2 n))`` from the
synthesized certificate (:mod:`repro.analysis.tails`) and validate it
against the *empirical* tail frequencies of seeded interpreter runs
truncated at the same horizon.  Every probe must satisfy
``freq <= bound`` — an unsound step-difference bound ``c`` or a broken
certificate fails loudly here, exactly like the Monte-Carlo bracket
checks do for the expected-cost bounds.

The programs are the ``tails`` suite of :mod:`repro.batch`; each request
derives the bound and simulates at its horizon, and the engine reports
the empirical frequency next to each probe (``tail.probes[i].freq``).

Run as ``python -m repro.experiments.table_tails [--runs N]
[--horizon N] [--seed S] [--jobs N]``; the exit status is 1 when a bound
is violated or none could be validated.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..programs import Benchmark
from .common import driver_cli, fmt, render_table, suite_reports

__all__ = ["TailCheck", "TailRow", "build_table_tails", "main"]


@dataclass
class TailCheck:
    """One probe of the bound against the empirical tail frequency."""

    t: float
    bound: float
    freq: float

    @property
    def ok(self) -> bool:
        return self.freq <= self.bound


@dataclass
class TailRow:
    """One benchmark's tail-bound validation record."""

    benchmark: str
    init: dict
    expected: Optional[float] = None
    c: Optional[float] = None
    horizon: Optional[int] = None
    refit: bool = False
    runs: int = 0
    truncated: int = 0
    checks: List[TailCheck] = field(default_factory=list)
    #: Why no tail bound was derived (``None`` when one was).
    unavailable: Optional[str] = None

    @property
    def sound(self) -> bool:
        """Every probed bound dominates its empirical frequency."""
        return all(check.ok for check in self.checks)


def build_table_tails(
    runs: int = 2000,
    horizon: int = 2000,
    seed: int = 0,
    benchmarks: Optional[List[Benchmark]] = None,
    analyzer=None,
) -> List[TailRow]:
    """Derive and empirically validate tail bounds over the suite.

    The simulation truncates at ``horizon`` steps — the same ``n`` the
    guarantee is stated for — so the empirical frequency of
    ``cost >= E + t`` among runs that terminate within the horizon
    estimates exactly the probability the bound dominates.
    """
    reports = suite_reports(
        "tails",
        analyzer,
        benchmarks,
        tails=True,
        tail_horizon=horizon,
        simulate_runs=runs,
        simulate_seed=seed,
        simulate_max_steps=horizon,
    )
    rows: List[TailRow] = []
    for report in reports:
        row = TailRow(benchmark=report.name, init=dict(report.init))
        tail = report.tail
        if tail is None:
            row.unavailable = report.error or next(
                (w for w in report.warnings if "tail bound unavailable" in w),
                "tail bound unavailable",
            )
        else:
            row.expected, row.c = tail["expected"], tail["c"]
            row.horizon, row.refit = tail["horizon"], tail["refit"]
            row.runs, row.truncated = runs, report.sim_truncated
            row.checks = [TailCheck(p["t"], p["bound"], p["freq"]) for p in tail["probes"]]
        rows.append(row)
    return rows


def _render(rows: List[TailRow], runs: int, horizon: int) -> Tuple[str, bool]:
    """The table text, and whether it validates: at least one row has a
    tail bound and no row's empirical tail exceeds it."""
    text_rows = []
    for row in rows:
        if row.unavailable is not None:
            text_rows.append([row.benchmark, "-", "-", "-", "unavailable", row.unavailable[:48]])
            continue
        checks = "  ".join(
            f"P[>E+{check.t:.0f}] {check.freq:.4f}<={check.bound:.4f}" for check in row.checks
        )
        numbers = [fmt(row.expected), fmt(row.c), str(row.horizon)]
        text_rows.append([row.benchmark, *numbers, "ok" if row.sound else "VIOLATED", checks])
    headers = ["program", "E", "c", "n", "sound", "empirical tail vs bound"]
    available = [row for row in rows if row.unavailable is None]
    violated = sum(1 for row in available if not row.sound)
    if violated:
        footer = f"\n{violated} violated bound(s)"
    elif not available:
        # Never claim success when nothing was validated: an infeasible
        # tail LP across the whole suite must fail loudly.
        footer = "\nno tail bounds available - nothing validated"
    else:
        validated = f"{len(available)}/{len(rows)} rows validated"
        footer = f"\nall empirical tails within bounds ({validated})"
    text = (
        f"Tail bounds: Azuma-Hoeffding vs {runs} simulated runs (horizon {horizon})\n"
        + render_table(headers, text_rows)
        + footer
    )
    return text, bool(available) and not violated


def main(runs: int = 2000, horizon: int = 2000, seed: int = 0, analyzer=None) -> str:
    rows = build_table_tails(runs=runs, horizon=horizon, seed=seed, analyzer=analyzer)
    return _render(rows, runs, horizon)[0]


def cli(argv: Optional[List[str]] = None) -> int:
    """Print the table; exit status 1 when a bound is violated or none
    could be validated, 0 otherwise."""

    def validated(runs, horizon, seed, analyzer):
        rows = build_table_tails(runs=runs, horizon=horizon, seed=seed, analyzer=analyzer)
        return _render(rows, runs, horizon)

    return driver_cli(validated, __doc__, argv, runs=2000, horizon=2000, seed=0)


if __name__ == "__main__":
    sys.exit(cli())
