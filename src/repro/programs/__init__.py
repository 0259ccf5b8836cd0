"""Benchmark program suite (Tables 2 and 3 of the paper, plus the
Table 6 extension families)."""

from .base import Benchmark, probabilistic_variant
from .registry import (
    all_benchmarks,
    benchmark_names,
    benchmarks_by_category,
    get_benchmark,
    resolve,
)
from .table2 import TABLE2_BENCHMARKS
from .table3 import TABLE3_BENCHMARKS
from .table6 import TABLE6_BENCHMARKS

__all__ = [
    "Benchmark",
    "TABLE2_BENCHMARKS",
    "TABLE3_BENCHMARKS",
    "TABLE6_BENCHMARKS",
    "all_benchmarks",
    "benchmark_names",
    "benchmarks_by_category",
    "get_benchmark",
    "probabilistic_variant",
    "resolve",
]
