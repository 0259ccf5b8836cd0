"""Table 2: comparison with Ngo-Carbonneaux-Hoffmann [74].

For each of the fifteen Absynth-style benchmarks this prints

* the upper bound of our reimplemented [74]-style baseline (nonnegative
  potentials; ``n/a`` where the program leaves the [74] fragment),
* the PUCS upper bound and PLCS lower bound of the paper's method,
* the bounds the paper reports, for side-by-side comparison.

PUCS/PLCS synthesis is the ``table2`` suite of :mod:`repro.batch`, run
as one batch on the analyzer session (``--jobs N`` fans the benchmarks
across worker processes; bounds are identical for every ``N``).  The
[74]-style baseline column is computed in-driver: it is a single cheap
LP per program and needs the local CFG objects.

Run as ``python -m repro.experiments.table2 [--jobs N]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..baseline import baseline_upper_bound
from ..batch import AnalysisReport
from ..errors import SynthesisError, UnsupportedProgramError
from ..programs import TABLE2_BENCHMARKS, Benchmark
from .common import driver_cli, fmt_poly, render_table, suite_reports

__all__ = ["Table2Row", "build_table2", "main"]


@dataclass
class Table2Row:
    benchmark: str
    baseline_upper: Optional[str]
    our_upper: Optional[str]
    our_lower: Optional[str]
    our_upper_value: Optional[float]
    our_lower_value: Optional[float]
    paper_74: Optional[str]
    paper_upper: Optional[str]
    paper_lower: Optional[str]


def _row(bench: Benchmark, report: AnalysisReport) -> Table2Row:
    try:
        base = baseline_upper_bound(bench.cfg, bench.invariant_map(), bench.init, degree=bench.degree)
        baseline_str: Optional[str] = fmt_poly(base.bound)
    except (UnsupportedProgramError, SynthesisError):
        baseline_str = None
    return Table2Row(
        benchmark=bench.name,
        baseline_upper=baseline_str,
        our_upper=report.upper_bound,
        our_lower=report.lower_bound
        if report.lower_bound is not None
        else ("0" if bench.paper_lower == "0" else None),
        our_upper_value=report.upper_value,
        our_lower_value=report.lower_value,
        paper_74=PAPER_74_UPPER.get(bench.name),
        paper_upper=bench.paper_upper,
        paper_lower=bench.paper_lower,
    )


#: The "[74]" column of Table 2, transcribed from the paper.
PAPER_74_UPPER = {
    "ber": "2*n - 2*x",
    "bin": "0.2*n + 1.8",
    "linear01": "0.6*x",
    "prdwalk": "1.14286*n - 1.14286*x + 4.5714",
    "race": "0.666667*t - 0.666667*h + 6",
    "rdseql": "2.25*x + y",
    "rdwalk": "2*n - 2*x + 2",
    "sprdwalk": "2*n - 2*x",
    "C4B_t13": "1.25*x + y",
    "prnes": "0.052631*y - 68.4795*n",
    "condand": "m + n",
    "pol04": "4.5*x^2 + 7.5*x",
    "pol05": "x^2 + x",
    "rdbub": "3*n^2",
    "trader": "-5*smin^2 - 5*smin + 5*s^2 + 5*s",
}


def build_table2(analyzer=None) -> List[Table2Row]:
    reports = suite_reports("table2", analyzer, TABLE2_BENCHMARKS)
    return [_row(bench, report) for bench, report in zip(TABLE2_BENCHMARKS, reports)]


def main(analyzer=None) -> str:
    rows = build_table2(analyzer=analyzer)
    text_rows = [
        [
            r.benchmark,
            r.baseline_upper or "n/a",
            r.our_upper or "-",
            r.our_lower or "-",
            r.paper_74 or "-",
            r.paper_upper or "-",
            r.paper_lower or "-",
        ]
        for r in rows
    ]
    headers = [
        "program",
        "[74]-style baseline (ours)",
        "PUCS upper (ours)",
        "PLCS lower (ours)",
        "[74] (paper)",
        "PUCS (paper)",
        "PLCS (paper)",
    ]
    out = "Table 2: upper/lower bounds vs the [74] baseline\n" + render_table(headers, text_rows)
    return out


if __name__ == "__main__":
    driver_cli(main, __doc__)
