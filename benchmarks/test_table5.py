"""Table 5 regeneration benchmarks: the prob(0.5) variants.

Checks that after replacing nondeterminism with a fair coin both
Bitcoin programs become simulable and their simulated means fall inside
the re-synthesized bounds (the paper's Modified Bitcoin Mining rows).
"""

import pytest

from repro.experiments.table5 import build_table5, probabilistic_variant
from repro.programs import get_benchmark

NONDET = ["bitcoin_mining", "bitcoin_pool"]


@pytest.mark.parametrize("name", NONDET, ids=NONDET)
def test_modified_bitcoin_rows(benchmark, name, repro_runs):
    bench = probabilistic_variant(get_benchmark(name))
    assert not bench.has_nondeterminism

    # Simulate only the cheapest valuation; the pool program's inner
    # loop makes large-y simulation expensive.
    small = dict(min(bench.all_inits(), key=lambda v: sum(abs(x) for x in v.values())))
    import dataclasses

    small_bench = dataclasses.replace(bench, init=small, extra_inits=[])

    rows = benchmark.pedantic(
        build_table5,
        kwargs={"runs": repro_runs, "seed": 0, "benchmarks": [small_bench]},
        rounds=1,
        iterations=1,
    )
    (row,) = rows
    assert row.sim_mean is not None
    slack = 6 * row.sim_std / (repro_runs**0.5) + 1e-6
    assert row.bracket_ok(slack=slack), (row.init, row.sim_mean, row.upper_value, row.lower_value)


def test_variant_bounds_shift_with_policy():
    """Replacing demonic choice by prob(0.5) must not *increase* the
    upper bound: the coin accepts rewards half the time."""
    orig = get_benchmark("bitcoin_mining").analyze()
    variant = probabilistic_variant(get_benchmark("bitcoin_mining")).analyze()
    assert variant.upper.value <= orig.upper.value + 1e-9
