"""The Table 6 extension families: lint, bounds and anchor values.

These benchmarks were modeled for this reimplementation (the paper
never evaluated them), so their contracts live here: every family ×
every registered initial valuation lints clean under strict checks,
analyzes without surprise warnings, and reproduces the hand-derived
closed-form bound values at its anchor.
"""

import pytest

from repro.api import AnalysisOptions
from repro.check import check_request
from repro.programs import TABLE6_BENCHMARKS, benchmarks_by_category, get_benchmark

IDS = [bench.name for bench in TABLE6_BENCHMARKS]

#: Hand-derived PUCS/PLCS values at each benchmark's anchor valuation.
#: quicksort_rec's multiplicative updates put it in the nonnegative
#: regime, which admits no lower bound (documented as lower_skipped).
ANCHOR_VALUES = {
    "coupon_collector": (100.0, 95.0),  # 5n - 5c / minus one success
    "quicksort_rec": (261.3337, None),  # (8/3)n - 16/3 at n=100
    "gamblers_ruin": (100.0, 0.0),  # 10x at x=10
    "gamblers_ruin_momentum": (40.0, 0.0),  # 4x at x=10
    "retry_queue": (114.28571, 111.99999),  # (16/7)n at n=50
}


def test_registry_has_five_table6_families():
    assert benchmarks_by_category("table6") == TABLE6_BENCHMARKS
    assert len(TABLE6_BENCHMARKS) == 5


def test_all_families_are_simulable():
    # Table 6 reports a sim column for every row, so none of these may
    # use demonic nondeterminism.
    for bench in TABLE6_BENCHMARKS:
        assert not bench.has_nondeterminism
        assert bench.simulation_supported


@pytest.mark.parametrize("bench", TABLE6_BENCHMARKS, ids=IDS)
def test_lints_clean_at_every_init(bench):
    for init in bench.all_inits():
        result = check_request(AnalysisOptions(init=init), bench)
        assert result.clean, (init, [d.format() for d in result.diagnostics])


@pytest.mark.parametrize("bench", TABLE6_BENCHMARKS, ids=IDS)
def test_analyzes_without_warnings(bench):
    result = bench.analyze()
    assert result.upper is not None
    assert result.warnings == []


@pytest.mark.parametrize("bench", TABLE6_BENCHMARKS, ids=IDS)
def test_anchor_bound_values(bench):
    upper, lower = ANCHOR_VALUES[bench.name]
    result = bench.analyze()
    assert result.upper.value == pytest.approx(upper, rel=1e-3)
    if lower is None:
        assert result.lower is None
        assert result.lower_skipped is not None
    else:
        assert result.lower is not None
        assert result.lower.value == pytest.approx(lower, rel=1e-3)


def test_strict_check_through_options():
    # The batch/CI path uses check="strict"; the anchor runs must
    # survive it end to end, not just the standalone lint pass.
    options = AnalysisOptions(check="strict")
    for bench in TABLE6_BENCHMARKS:
        result = bench.analyze(options)
        assert result.diagnostics == []


def test_lookup_by_name():
    assert get_benchmark("retry_queue").category == "table6"
