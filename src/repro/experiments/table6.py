"""Table 6: bounds + simulation for the extension benchmark families.

These are the workloads the paper never evaluated (coupon collector,
randomized quicksort, gambler's-ruin variants, a service retry loop;
see :mod:`repro.programs.table6`).  Every family is purely
probabilistic, so the table reports the PUCS/PLCS values for each
initial valuation next to the seeded Monte-Carlo mean/std — the same
grid shape as Table 4, over the ``table6`` suite of :mod:`repro.batch`.

Run as ``python -m repro.experiments.table6 [--runs N] [--jobs N]``.
"""

from __future__ import annotations

from typing import List, Optional

from ..programs import Benchmark
from .common import BoundsRow, bounds_rows, driver_cli, render_bounds

__all__ = ["build_table6", "main"]


def build_table6(
    runs: int = 1000,
    seed: int = 0,
    benchmarks: Optional[List[Benchmark]] = None,
    analyzer=None,
) -> List[BoundsRow]:
    return bounds_rows("table6", runs, seed, benchmarks, analyzer)


def main(runs: int = 1000, seed: int = 0, analyzer=None) -> str:
    rows = build_table6(runs=runs, seed=seed, analyzer=analyzer)
    title = f"Table 6: extension families, bounds and simulation ({runs} runs per valuation)"
    return render_bounds(title, rows)


if __name__ == "__main__":
    driver_cli(main, __doc__, runs=1000, seed=0)
