"""Table 5: nondeterminism replaced by ``prob(0.5)``.

The paper's Table 5 re-runs the experiment suite after replacing every
demonic ``if *`` with a fair coin flip, which makes the two Bitcoin
programs simulable.  The replacement preserves label numbering (a
nondeterministic label becomes a probabilistic one in place), so the
invariants carry over unchanged.  The grid is the ``table5`` suite of
:mod:`repro.batch`, whose requests carry the flip as ``nondet_prob``.

Run as ``python -m repro.experiments.table5 [--runs N] [--jobs N]``.
"""

from __future__ import annotations

from typing import List, Optional

from ..programs import Benchmark, probabilistic_variant
from .common import BoundsRow, bounds_rows, driver_cli, render_bounds

__all__ = ["probabilistic_variant", "build_table5", "main"]


def build_table5(
    runs: int = 1000,
    seed: int = 0,
    benchmarks: Optional[List[Benchmark]] = None,
    analyzer=None,
) -> List[BoundsRow]:
    return bounds_rows("table5", runs, seed, benchmarks, analyzer)


def main(runs: int = 1000, seed: int = 0, analyzer=None) -> str:
    rows = build_table5(runs=runs, seed=seed, analyzer=analyzer)
    title = f"Table 5: nondeterminism replaced with prob(0.5) ({runs} runs per valuation)"
    return render_bounds(title, rows)


if __name__ == "__main__":
    driver_cli(main, __doc__, runs=1000, seed=0)
