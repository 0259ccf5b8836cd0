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

Run as ``python -m repro.experiments.table_tails [--runs N]
[--horizon N] [--seed S]``; the exit status is 1 when a bound is
violated or none could be validated.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..api import AnalysisOptions
from ..programs import get_benchmark, probabilistic_variant
from ..semantics import simulate
from .common import add_driver_args, driver_analyzer, fmt, render_table, table_analyzer

__all__ = ["TAIL_SUITE", "TailCheck", "TailRow", "build_table_tails", "main"]

#: (benchmark name, nondet_prob) pairs: Table 2 representatives plus
#: Table 5 coin-flip variants.  Chosen for having degree-1 certificates
#: with a constant step-difference bound *and* being simulable.
TAIL_SUITE: List[Tuple[str, Optional[float]]] = [
    ("rdwalk", None),
    ("ber", None),
    ("bin", None),
    ("prdwalk", None),
    ("sprdwalk", None),
    ("C4B_t13", None),
    ("random_walk", None),
    ("bitcoin_mining", 0.5),
]


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
    suite: Optional[List[Tuple[str, Optional[float]]]] = None,
    analyzer=None,
) -> List[TailRow]:
    """Derive and empirically validate tail bounds over the suite.

    The simulation truncates at ``horizon`` steps — the same ``n`` the
    guarantee is stated for — so the empirical frequency of
    ``cost >= E + t`` among runs that terminate within the horizon
    estimates exactly the probability the bound dominates.
    """
    rows: List[TailRow] = []
    with table_analyzer(analyzer) as session:
        for name, prob in suite if suite is not None else TAIL_SUITE:
            bench = get_benchmark(name)
            if prob is not None:
                bench = probabilistic_variant(bench, prob=prob)
            init = dict(bench.init)
            row = TailRow(benchmark=bench.name, init=init)
            result = session.synthesize(
                bench, AnalysisOptions(tails=True, tail_horizon=horizon)
            )
            if result.tail is None:
                row.unavailable = next(
                    (w for w in result.warnings if "tail bound unavailable" in w),
                    "tail bound unavailable",
                )
                rows.append(row)
                continue
            tail = result.tail
            row.expected = tail.expected
            row.c = tail.c
            row.horizon = tail.horizon
            row.refit = tail.refit
            stats = simulate(bench.cfg, init, runs=runs, seed=seed, max_steps=horizon)
            row.runs = stats.runs
            row.truncated = stats.truncated
            for probe in tail.probes:
                exceeding = sum(1 for cost in stats.costs if cost >= tail.expected + probe.t)
                row.checks.append(
                    TailCheck(t=probe.t, bound=probe.bound, freq=exceeding / runs)
                )
            rows.append(row)
    return rows


def _render(rows: List[TailRow], runs: int, horizon: int) -> Tuple[str, bool]:
    """The table text, and whether it validates: at least one row has a
    tail bound and no row's empirical tail exceeds it."""
    text_rows = []
    for row in rows:
        if row.unavailable is not None:
            text_rows.append(
                [row.benchmark, "-", "-", "-", "unavailable", row.unavailable[:48]]
            )
            continue
        checks = "  ".join(
            f"P[>E+{check.t:.0f}] {check.freq:.4f}<={check.bound:.4f}"
            for check in row.checks
        )
        text_rows.append(
            [
                row.benchmark,
                fmt(row.expected),
                fmt(row.c),
                str(row.horizon),
                "ok" if row.sound else "VIOLATED",
                checks,
            ]
        )
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
        footer = (
            f"\nall empirical tails within bounds "
            f"({len(available)}/{len(rows)} rows validated)"
        )
    text = (
        f"Tail bounds: Azuma-Hoeffding vs {runs} simulated runs (horizon {horizon})\n"
        + render_table(headers, text_rows)
        + footer
    )
    return text, bool(available) and not violated


def main(
    runs: int = 2000, horizon: int = 2000, seed: int = 0, analyzer=None
) -> str:
    rows = build_table_tails(runs=runs, horizon=horizon, seed=seed, analyzer=analyzer)
    return _render(rows, runs, horizon)[0]


def cli(argv: Optional[List[str]] = None) -> int:
    """Print the table; exit status 1 when a bound is violated or none
    could be validated, 0 otherwise."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=2000, help="simulated runs per benchmark")
    parser.add_argument("--horizon", type=int, default=2000, help="step horizon n")
    parser.add_argument("--seed", type=int, default=0)
    add_driver_args(parser)
    args = parser.parse_args(argv)
    with driver_analyzer(args) as analyzer:
        rows = build_table_tails(
            runs=args.runs, horizon=args.horizon, seed=args.seed, analyzer=analyzer
        )
    text, ok = _render(rows, args.runs, args.horizon)
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(cli())
