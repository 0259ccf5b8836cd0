"""Interpreter tests: exact costs on deterministic programs, statistics
on probabilistic ones, scheduler interaction."""

import math
import random

import pytest

from repro.errors import SemanticsError
from repro.semantics import (
    CallbackScheduler,
    ElseScheduler,
    FixedScheduler,
    RandomScheduler,
    ThenScheduler,
    build_cfg,
    run,
    simulate,
)
from repro.syntax import parse_program


def make(source):
    return build_cfg(parse_program(source))


class TestDeterministic:
    def test_straight_line_cost(self):
        cfg = make("var x; x := 3; tick(2 * x); tick(1)")
        result = run(cfg, {"x": 0})
        assert result.terminated
        assert result.total_cost == 7.0

    def test_counted_loop(self):
        cfg = make("var i; while i >= 1 do tick(i); i := i - 1 od")
        result = run(cfg, {"i": 4})
        assert result.total_cost == 4 + 3 + 2 + 1

    def test_final_valuation(self):
        cfg = make("var x, y; x := 5; y := x * x")
        result = run(cfg, {"x": 0, "y": 0})
        assert result.final_valuation == {"x": 5.0, "y": 25.0}

    def test_branching(self):
        cfg = make("var x; if x >= 0 then tick(1) else tick(2) fi")
        assert run(cfg, {"x": 1}).total_cost == 1.0
        assert run(cfg, {"x": -1}).total_cost == 2.0

    def test_max_steps_truncation(self):
        cfg = make("var x; while x >= 0 do x := x + 1 od")
        result = run(cfg, {"x": 0}, max_steps=100)
        assert not result.terminated
        assert result.steps == 100

    def test_negative_costs_accumulate(self):
        cfg = make("var x; tick(5); tick(-8)")
        assert run(cfg, {"x": 0}).total_cost == -3.0

    def test_unknown_initial_variable_rejected(self):
        cfg = make("var x; skip")
        with pytest.raises(SemanticsError):
            run(cfg, {"q": 1})

    def test_unmentioned_variables_default_to_zero(self):
        cfg = make("var x, y; x := y + 1")
        assert run(cfg, {}).final_valuation["x"] == 1.0


class TestProbabilistic:
    def test_sampling_assignment(self):
        cfg = make("var x; sample r ~ point(7); x := r")
        assert run(cfg, {"x": 0}).final_valuation["x"] == 7.0

    def test_fresh_draw_each_access(self):
        # With resampling, two consecutive draws eventually differ.
        cfg = make("var a, b; sample r ~ discrete(0: 0.5, 1: 0.5); a := r; b := r")
        rng = random.Random(3)
        seen_diff = any(
            (res := run(cfg, {"a": 0, "b": 0}, rng=rng)).final_valuation["a"]
            != res.final_valuation["b"]
            for _ in range(50)
        )
        assert seen_diff

    def test_prob_branch_statistics(self):
        cfg = make("var x; if prob(0.25) then tick(1) fi")
        stats = simulate(cfg, {"x": 0}, runs=8000, seed=0)
        assert stats.mean == pytest.approx(0.25, abs=0.02)

    def test_geometric_expected_cost(self):
        # Ticks once per trial until success with p = 0.5: E = 2.
        cfg = make(
            "var going; going := 1; while going >= 1 do tick(1); "
            "if prob(0.5) then going := 0 fi od"
        )
        stats = simulate(cfg, {"going": 0}, runs=4000, seed=1)
        assert stats.mean == pytest.approx(2.0, abs=0.1)

    def test_rdwalk_expected_cost(self, rdwalk_cfg):
        stats = simulate(rdwalk_cfg, {"x": 10}, runs=3000, seed=2)
        assert stats.mean == pytest.approx(20.0, rel=0.1)

    def test_seed_reproducibility(self, rdwalk_cfg):
        s1 = simulate(rdwalk_cfg, {"x": 5}, runs=100, seed=42)
        s2 = simulate(rdwalk_cfg, {"x": 5}, runs=100, seed=42)
        assert s1.costs == s2.costs

    def test_termination_rate(self, rdwalk_cfg):
        stats = simulate(rdwalk_cfg, {"x": 5}, runs=200, seed=0)
        assert stats.termination_rate == 1.0

    def test_statistics_fields(self, rdwalk_cfg):
        stats = simulate(rdwalk_cfg, {"x": 5}, runs=500, seed=0)
        assert stats.min <= stats.mean <= stats.max
        assert stats.std > 0
        lo, hi = stats.confidence_interval()
        assert lo < stats.mean < hi

    def test_zero_runs_rejected(self, rdwalk_cfg):
        with pytest.raises(ValueError):
            simulate(rdwalk_cfg, {"x": 5}, runs=0)

    @pytest.mark.parametrize("engine", ["reference", "vectorized", "auto"])
    def test_negative_seed_rejected(self, rdwalk_cfg, engine):
        # random.Random(-1) would quietly reuse seed 1's stream.
        with pytest.raises(ValueError, match="seed must be >= 0"):
            simulate(rdwalk_cfg, {"x": 5}, runs=10, seed=-1, engine=engine)


class TestSchedulers:
    SOURCE = "var x; if * then tick(10) else tick(-10) fi"

    def test_then_scheduler(self):
        cfg = make(self.SOURCE)
        assert run(cfg, {"x": 0}, scheduler=ThenScheduler()).total_cost == 10.0

    def test_else_scheduler(self):
        cfg = make(self.SOURCE)
        assert run(cfg, {"x": 0}, scheduler=ElseScheduler()).total_cost == -10.0

    def test_fixed_scheduler(self):
        cfg = make(self.SOURCE)
        (nd,) = cfg.nondet_labels()
        sched = FixedScheduler({nd.id: False}, default=True)
        assert run(cfg, {"x": 0}, scheduler=sched).total_cost == -10.0

    def test_random_scheduler_mixes(self):
        cfg = make(self.SOURCE)
        sched = RandomScheduler(p_then=0.5, seed=0)
        costs = {run(cfg, {"x": 0}, scheduler=sched).total_cost for _ in range(50)}
        assert costs == {10.0, -10.0}

    def test_callback_scheduler_sees_state(self):
        from repro.semantics import CallbackScheduler

        cfg = make("var x; x := 3; if * then tick(1) else tick(2) fi")
        sched = CallbackScheduler(lambda label, valuation, history: valuation["x"] >= 2)
        assert run(cfg, {"x": 0}, scheduler=sched).total_cost == 1.0


class TestTrajectories:
    def test_trajectory_recorded(self, figure2_cfg):
        result = run(figure2_cfg, {"x": 3, "y": 0}, rng=random.Random(0), record_trajectory=True)
        assert result.trajectory is not None
        assert result.trajectory[0][0] == 1  # starts at the loop head
        assert result.trajectory[-1][0] == figure2_cfg.exit

    def test_trajectory_costs_sum_to_total(self, figure2_cfg):
        result = run(figure2_cfg, {"x": 5, "y": 0}, rng=random.Random(1), record_trajectory=True)
        assert sum(c for _, _, c in result.trajectory) == pytest.approx(result.total_cost)


class TestTruncation:
    """Regression tests: truncated (non-terminated) runs are counted and
    surfaced instead of silently skewing mean/std."""

    def test_truncated_runs_counted(self):
        cfg = make("var x; while x >= 0 do x := x + 1; tick(1) od")
        stats = simulate(cfg, {"x": 0}, runs=7, seed=0, max_steps=30)
        assert stats.truncated == 7
        assert stats.terminated_runs == 0
        assert stats.termination_rate == 0.0
        # Partial costs are *excluded* from the statistics: with no
        # terminated run there is no mean, only the diagnostic
        # truncated-run partial mean.
        assert math.isnan(stats.mean)
        assert math.isnan(stats.std)
        assert stats.costs == []
        assert stats.truncated_mean == pytest.approx(10.0)
        assert len(stats.truncated_costs) == 7

    def test_terminating_program_has_no_truncated_runs(self):
        cfg = make("var i; while i >= 1 do tick(i); i := i - 1 od")
        stats = simulate(cfg, {"i": 3}, runs=5, seed=0)
        assert stats.truncated == 0
        assert stats.termination_rate == 1.0
        assert stats.truncated_mean is None
        assert stats.truncated_costs == []

    def test_mixed_truncation_consistent_with_rate(self, figure2_cfg):
        stats = simulate(figure2_cfg, {"x": 4, "y": 0}, runs=40, seed=1, max_steps=30)
        assert stats.truncated == round((1.0 - stats.termination_rate) * stats.runs)
        assert 0 < stats.truncated < stats.runs
        # mean/std cover only the terminated runs now.
        assert len(stats.costs) == stats.terminated_runs
        assert len(stats.truncated_costs) == stats.truncated
        assert stats.mean == pytest.approx(sum(stats.costs) / stats.terminated_runs)
        assert stats.truncated_mean == pytest.approx(
            sum(stats.truncated_costs) / stats.truncated
        )

    def test_truncated_partial_costs_do_not_enter_mean(self):
        """Regression for the old downward bias: a truncated run's
        partial cost is a strict undercount of its true cost, and the
        pre-fix estimator folded it into the mean anyway.  The new
        statistics must be computable from the terminated costs alone."""
        cfg = make("var x; while x >= 1 do x := x + (1, -1) : (0.25, 0.75); tick(1) od")
        stats = simulate(cfg, {"x": 10}, runs=200, seed=3, max_steps=75)
        assert 0 < stats.truncated < stats.runs
        biased = (sum(stats.costs) + sum(stats.truncated_costs)) / stats.runs
        assert stats.mean == pytest.approx(sum(stats.costs) / len(stats.costs))
        assert stats.mean != pytest.approx(biased)
        # Every truncated partial cost undercounts a run that was still
        # going at the horizon (cost = iterations so far, one tick per
        # three CFG steps).
        assert all(cost <= 75 for cost in stats.truncated_costs)

    def test_tail_frequency_counts_truncated_runs_as_not_exceeding(self):
        """The share of *all* runs that terminated at or above the
        threshold: a truncated run's partial cost never counts."""
        cfg = make("var x; while x >= 1 do x := x + (1, -1) : (0.25, 0.75); tick(1) od")
        stats = simulate(cfg, {"x": 10}, runs=200, seed=3, max_steps=75)
        assert max(stats.truncated_costs) >= 20
        exceeding = sum(1 for cost in stats.costs if cost >= 20)
        assert stats.tail_frequency(20) == exceeding / 200
        assert stats.tail_frequency(float("-inf")) == stats.termination_rate


class TestHistoryGating:
    """Regression tests: per-step valuation snapshots are only recorded
    when a history-consuming scheduler can actually read them — a 1M-step
    truncated run used to allocate one dict snapshot per step."""

    def test_custom_scheduler_still_sees_history(self):
        cfg = make("var x; x := 1; if * then tick(1) else tick(2) fi")
        seen = []
        sched = CallbackScheduler(
            lambda label, valuation, history: bool(seen.append(len(history))) or True
        )
        run(cfg, {"x": 0}, scheduler=sched)
        # The nondet label is the second step, so one prior entry.
        assert seen == [1]

    def test_builtin_schedulers_skip_history(self):
        cfg = make("var x; x := 1; if * then tick(1) else tick(2) fi")

        class Spy(ThenScheduler):
            # Inherits needs_history = False; record what arrives.
            def choose(self, label, valuation, history):
                assert history == []
                return True

        result = run(cfg, {"x": 0}, scheduler=Spy())
        assert result.total_cost == 1.0

    def test_long_truncated_run_stays_small(self):
        import tracemalloc

        cfg = make("var x; while x >= 0 do x := x + 1 od")
        tracemalloc.start()
        try:
            run(cfg, {"x": 0}, max_steps=200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 200k dict snapshots would be tens of MB; the gated run stays
        # within a small constant footprint.
        assert peak < 5 * 1024 * 1024
