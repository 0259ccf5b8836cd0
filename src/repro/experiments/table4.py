"""Table 4: numeric bounds at several initial valuations + simulation.

For every Table 3 benchmark and each of its three initial valuations
this reports the PUCS/PLCS values with synthesis runtimes, plus the
mean/std of simulated total cost.  As in the paper, programs with
nondeterminism (the two Bitcoin examples) have no simulation column —
Monte-Carlo needs a policy; Table 5 handles them by replacing ``if *``
with a coin flip.

The grid is the ``table3`` suite of :mod:`repro.batch` over all
valuations, run as one batch; ``--jobs N`` parallelizes it without
changing any reported bound.

Run as ``python -m repro.experiments.table4 [--runs N] [--jobs N]``.
"""

from __future__ import annotations

from typing import List, Optional

from ..programs import Benchmark
from .common import BoundsRow, bounds_rows, driver_cli, render_bounds

__all__ = ["build_table4", "main"]


def build_table4(
    runs: int = 1000,
    seed: int = 0,
    benchmarks: Optional[List[Benchmark]] = None,
    analyzer=None,
) -> List[BoundsRow]:
    return bounds_rows("table3", runs, seed, benchmarks, analyzer)


def main(runs: int = 1000, seed: int = 0, analyzer=None) -> str:
    rows = build_table4(runs=runs, seed=seed, analyzer=analyzer)
    title = f"Table 4: numeric bounds and simulation ({runs} runs per valuation)"
    return render_bounds(title, rows, timed=True)


if __name__ == "__main__":
    driver_cli(main, __doc__, runs=1000, seed=0)
