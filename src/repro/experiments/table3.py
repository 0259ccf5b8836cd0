"""Table 3: symbolic PUCS/PLCS bounds and runtimes on the new benchmarks.

The rows are the ``table3`` suite of :mod:`repro.batch`, run as one
batch on the analyzer session; ``--jobs N`` fans the benchmarks across
worker processes.  The bounds are identical for every ``N`` —
synthesis is deterministic — only the wall clock changes.

Run as ``python -m repro.experiments.table3 [--jobs N]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..programs import TABLE3_BENCHMARKS, Benchmark
from .common import driver_cli, fmt, fmt_init, render_table, suite_reports

__all__ = ["Table3Row", "build_table3", "main"]


@dataclass
class Table3Row:
    benchmark: str
    init: dict
    upper: Optional[str]
    lower: Optional[str]
    upper_value: Optional[float]
    lower_value: Optional[float]
    runtime: float
    paper_upper: Optional[str]
    paper_lower: Optional[str]


def build_table3(benchmarks: Optional[List[Benchmark]] = None, analyzer=None) -> List[Table3Row]:
    benches = list(benchmarks or TABLE3_BENCHMARKS)
    reports = suite_reports("table3", analyzer, benches)
    rows = []
    for bench, report in zip(benches, reports):
        rows.append(
            Table3Row(
                benchmark=bench.name,
                init=dict(bench.init),
                upper=report.upper_bound,
                lower=report.lower_bound,
                upper_value=report.upper_value,
                lower_value=report.lower_value,
                runtime=report.runtime,
                paper_upper=bench.paper_upper,
                paper_lower=bench.paper_lower,
            )
        )
    return rows


def main(analyzer=None) -> str:
    rows = build_table3(analyzer=analyzer)
    text_rows = [
        [
            r.benchmark,
            fmt_init(r.init),
            r.upper or "-",
            r.lower or "-",
            fmt(r.runtime, 3) + "s",
        ]
        for r in rows
    ]
    headers = ["program", "v0", "h(l_in) in PUCS", "h(l_in) in PLCS", "runtime"]
    out = "Table 3: symbolic bounds via PUCS and PLCS\n" + render_table(headers, text_rows)
    out += "\n\nPaper-reported bounds for comparison:\n"
    paper_rows = [[r.benchmark, r.paper_upper or "-", r.paper_lower or "-"] for r in rows]
    out += render_table(["program", "paper PUCS", "paper PLCS"], paper_rows)
    return out


if __name__ == "__main__":
    driver_cli(main, __doc__)
