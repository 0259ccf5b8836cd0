"""End-to-end checks over the full benchmark suite.

For every benchmark (15 from Table 2 + 10 from Table 3 + 5 from the
Table 6 extension families):

* the program parses, the CFG builds, and the annotated invariants hold
  along simulated runs;
* the PUCS (and PLCS where the regime admits one) synthesizes;
* the synthesized certificates satisfy (C3)/(C3') *exactly* at every
  configuration visited by simulated runs (the martingale validator
  evaluates Definition 6.3 with exact moments);
* the bounds bracket the simulated mean cost (on the prob(0.5) variant
  for nondeterministic programs);
* anchor values that the LP reproduces exactly match the paper.
"""

import pytest

from repro.analysis import check_cost_martingale
from repro.experiments import probabilistic_variant
from repro.programs import all_benchmarks, benchmarks_by_category, get_benchmark
from repro.semantics import simulate

ALL = all_benchmarks()
IDS = [b.name for b in ALL]

#: Smaller initial valuations for simulation-heavy checks.
SIM_INITS = {
    "bitcoin_pool": {"y": 20.0, "i": 0.0},
    "queuing_network": {"l1": 0.0, "l2": 0.0, "i": 1.0, "n": 240.0},
    "nested_loop": {"i": 50.0, "x": 0.0, "y": 0.0, "z": 0.0},
    "simple_loop": {"x": 100.0, "y": 0.0},
    "robot_2d": {"x": 100.0, "y": 90.0},
    "species_fight": {"a": 12.0, "b": 10.0},
    "prnes": {"y": 0.0, "n": -5.0},
}

_RESULT_CACHE = {}


def analyzed(bench):
    if bench.name not in _RESULT_CACHE:
        _RESULT_CACHE[bench.name] = bench.analyze()
    return _RESULT_CACHE[bench.name]


@pytest.mark.parametrize("bench", ALL, ids=IDS)
def test_program_parses_and_builds(bench):
    assert bench.program.pvars
    assert len(bench.cfg) >= 3
    assert bench.cfg.entry == 1


@pytest.mark.parametrize("bench", ALL, ids=IDS)
def test_invariants_reference_valid_labels(bench):
    bench.invariant_map()  # raises on unknown labels


@pytest.mark.parametrize("bench", ALL, ids=IDS)
def test_invariants_hold_along_runs(bench):
    init = SIM_INITS.get(bench.name, bench.init)
    sim_bench = probabilistic_variant(bench)
    inv = bench.invariant_map(init)
    inv.validate_by_simulation(sim_bench.cfg, init, runs=15, seed=0, max_steps=200_000)


@pytest.mark.parametrize("bench", ALL, ids=IDS)
def test_upper_bound_synthesizes(bench):
    result = analyzed(bench)
    assert result.upper is not None, result.warnings
    assert result.upper.bound.is_numeric()


@pytest.mark.parametrize("bench", ALL, ids=IDS)
def test_lower_bound_when_regime_admits(bench):
    result = analyzed(bench)
    if result.mode.lower:
        assert result.lower is not None, result.warnings
        assert result.lower.value <= result.upper.value + 1e-6


@pytest.mark.parametrize("bench", ALL, ids=IDS)
def test_pucs_is_cost_supermartingale(bench):
    """(C3) holds exactly at every simulated configuration."""
    result = analyzed(bench)
    init = SIM_INITS.get(bench.name, bench.init)
    sim_bench = probabilistic_variant(bench)
    report = check_cost_martingale(
        sim_bench.cfg, result.upper.h, "upper", init, runs=8, seed=0, max_steps=100_000
    )
    assert report.ok(tol=1e-4), report.worst_config


@pytest.mark.parametrize("bench", ALL, ids=IDS)
def test_plcs_is_cost_submartingale(bench):
    result = analyzed(bench)
    if result.lower is None:
        pytest.skip("no lower bound in this regime")
    init = SIM_INITS.get(bench.name, bench.init)
    sim_bench = probabilistic_variant(bench)
    report = check_cost_martingale(
        sim_bench.cfg, result.lower.h, "lower", init, runs=8, seed=0, max_steps=100_000
    )
    assert report.ok(tol=1e-4), report.worst_config


@pytest.mark.parametrize("bench", ALL, ids=IDS)
def test_bounds_bracket_simulation(bench):
    """UB >= simulated mean >= LB, within Monte-Carlo error.

    For nondeterministic programs the prob(0.5) policy is one concrete
    scheduler, so its expected cost is <= supval <= UB; the PLCS lower
    bound applies to supval, not to this policy, hence only the upper
    comparison is checked there.
    """
    result = analyzed(bench)
    init = SIM_INITS.get(bench.name, bench.init)
    sim_bench = probabilistic_variant(bench)
    stats = simulate(sim_bench.cfg, init, runs=120, seed=1, max_steps=bench.max_sim_steps)
    assert stats.termination_rate == 1.0
    margin = 4 * stats.stderr() + 1e-6
    ub = result.upper.bound_at(init)
    assert stats.mean <= ub + margin, (stats.mean, ub)
    if result.lower is not None and not bench.has_nondeterminism:
        lb = result.lower.bound_at(init)
        assert stats.mean >= lb - margin, (stats.mean, lb)


class TestExactAnchorValues:
    """Anchor values the LP reproduces exactly (cross-checked by hand)."""

    CASES = {
        "bitcoin_mining": ("upper", 1.475 - 1.475 * 100),
        "simple_loop": ("upper", (200 * 200 + 200) / 3),
        "nested_loop": ("upper", 150 * 150 / 3 + 150),
        "random_walk": ("upper", 2.5 * 12 - 2.5 * 20),
        "species_fight": ("upper", 40 * 16 * 10 - 180 * 16 - 180 * 10 + 810),
        "ber": ("upper", 200.0),
        "bin": ("upper", 20.0),
        "rdwalk": ("upper", 202.0),
        "C4B_t13": ("upper", 50.0),
        "pol05": ("upper", 0.5 * 50 * 50 + 2.5 * 50),
        "rdbub": ("upper", 3 * 20 * 20),
        "trader": ("upper", 5 * (30 * 30 + 30 - 5 * 5 - 5)),
    }

    @pytest.mark.parametrize("name", sorted(CASES), ids=sorted(CASES))
    def test_value(self, name):
        kind, expected = self.CASES[name]
        result = analyzed(get_benchmark(name))
        bound = result.upper if kind == "upper" else result.lower
        assert bound.value == pytest.approx(expected, rel=1e-5)

    LOWER_CASES = {
        "bitcoin_mining": -1.475 * 100,
        "simple_loop": (200 * 200 + 200) / 3 - 2 / 3,
        "nested_loop": 150 * 150 / 3 - 150 / 3,
        "random_walk": 2.5 * 12 - 2.5 * 20 - 2.5,
        "pollutant_disposal": -0.2 * 200 * 200 + 50.2 * 200 - 482.0,
    }

    @pytest.mark.parametrize("name", sorted(LOWER_CASES), ids=sorted(LOWER_CASES))
    def test_lower_value(self, name):
        result = analyzed(get_benchmark(name))
        assert result.lower.value == pytest.approx(self.LOWER_CASES[name], rel=1e-5)


class TestRegistry:
    def test_counts(self):
        assert len(benchmarks_by_category("table2")) == 15
        assert len(benchmarks_by_category("table3")) == 10
        assert len(benchmarks_by_category("table6")) == 5

    def test_lookup(self):
        assert get_benchmark("simple_loop").name == "simple_loop"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_benchmark("nope")

    def test_nondeterministic_benchmarks_identified(self):
        assert get_benchmark("bitcoin_mining").has_nondeterminism
        assert not get_benchmark("simple_loop").has_nondeterminism
        assert not get_benchmark("bitcoin_mining").simulation_supported

    def test_variant_memo_is_bounded(self):
        """Coin-flip variants are memoised per (name, prob), but ``prob``
        comes from request bodies: distinct values must not grow the
        memo without limit, and a repeated pair must still hit."""
        from repro.batch import AnalysisRequest
        from repro.programs import registry, resolve

        for i in range(10_000):
            resolve(AnalysisRequest(benchmark="bitcoin_mining", nondet_prob=i / 10_000))
            assert len(registry._VARIANT_CACHE) <= registry._VARIANT_CACHE_MAX
        request = AnalysisRequest(benchmark="bitcoin_mining", nondet_prob=0.5)
        first, _, _ = resolve(request)
        again, _, _ = resolve(request)
        assert again is first and first.name == "bitcoin_mining_prob"

    def test_all_inits_deduplicated(self):
        bench = get_benchmark("bitcoin_mining")
        inits = bench.all_inits()
        assert len(inits) == 3
