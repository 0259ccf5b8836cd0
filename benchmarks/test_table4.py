"""Table 4 regeneration benchmarks: bounds at three valuations plus
Monte-Carlo simulation per program.

The full-scale table (1000 runs per valuation, as in the paper) is
produced by ``python -m repro.experiments.table4``; here the simulation
is scaled down (``--repro-runs``, default 100) so the harness stays
fast while exercising the identical code path, and the bracketing
property UB >= mean >= LB is asserted on every row.
"""

import pytest

from repro.experiments.table4 import build_table4
from repro.programs import TABLE3_BENCHMARKS, get_benchmark

#: Simulation-light subset: the full set is covered by the experiments
#: module; these five cover every regime (signed / nonnegative /
#: nondeterministic / init-dependent invariants).
SUBSET = ["bitcoin_mining", "simple_loop", "random_walk", "goods_discount", "pollutant_disposal"]


@pytest.mark.parametrize("name", SUBSET, ids=SUBSET)
def test_table4_rows(benchmark, name, repro_runs):
    bench = get_benchmark(name)

    rows = benchmark.pedantic(
        build_table4,
        kwargs={"runs": repro_runs, "seed": 0, "benchmarks": [bench]},
        rounds=1,
        iterations=1,
    )
    assert len(rows) == len(bench.all_inits())
    for row in rows:
        if row.sim_mean is None:
            continue
        slack = 5 * row.sim_std / (repro_runs**0.5) + 1e-6
        assert row.bracket_ok(slack=slack), (row.benchmark, row.init, row.sim_mean)


def test_all_programs_have_three_valuations():
    for bench in TABLE3_BENCHMARKS:
        assert len(bench.all_inits()) == 3
