"""Ranking supermartingale / concentration certificate tests."""

import pytest

from repro.core import classify
from repro.core import lp as lp_module
from repro.errors import InfeasibleError, SynthesisError
from repro.invariants import InvariantMap
from repro.programs import get_benchmark
from repro.semantics import build_cfg
from repro.semantics.cfg import TickLabel
from repro.syntax import parse_program
from repro.termination import certify_concentration, synthesize_rsm


class TestRSM:
    def test_rdwalk_has_linear_rsm(self, rdwalk_cfg, rdwalk_invariants):
        cert = synthesize_rsm(rdwalk_cfg, rdwalk_invariants, {"x": 100})
        assert cert.certifies_concentration
        # Each loop iteration is 3 CFG steps; E[iterations] = 2x.
        assert cert.expected_time_bound >= 600.0

    def test_rsm_decreases_along_configurations(self, rdwalk_cfg, rdwalk_invariants):
        from repro.core import pre_expectation_value

        def step_value(label_id, v):
            # An RSM bounds steps, not cost: a tick's step is eta(succ).
            label = rdwalk_cfg.labels[label_id]
            if isinstance(label, TickLabel):
                return cert.eta[label.succ].evaluate_numeric(v)
            return pre_expectation_value(rdwalk_cfg, cert.eta, label_id, v)

        cert = synthesize_rsm(rdwalk_cfg, rdwalk_invariants, {"x": 10})
        assert any(isinstance(label, TickLabel) for label in rdwalk_cfg)
        for x in range(1, 20):
            v = {"x": float(x)}
            for label_id in (1, 2, 3):
                if label_id == 2 and x < 1:
                    continue
                eta = cert.eta[label_id].evaluate_numeric(v)
                assert step_value(label_id, v) <= eta - cert.epsilon + 1e-7

    def test_negative_tick_cost_does_not_rank(self):
        # A tick's cost is not a step: with the cost counted, tick(-5)
        # let an RSM "prove" this never-terminating loop terminates.
        for cost in (-5, 5):
            cfg = build_cfg(parse_program(f"var x; while x >= 0 do tick({cost}) od"))
            inv = InvariantMap.from_strings(cfg, {label.id: "x >= 0" for label in cfg})
            assert certify_concentration(cfg, inv, {"x": 0}) is None

    def test_rsm_nonnegative_on_invariant(self, rdwalk_cfg, rdwalk_invariants):
        cert = synthesize_rsm(rdwalk_cfg, rdwalk_invariants, {"x": 10})
        for x in range(0, 30):
            assert cert.eta_at(1, {"x": float(x)}) >= -1e-7

    def test_nondeterministic_termination_is_demonic(self):
        # The scheduler may always pick the non-decreasing branch: no RSM.
        source = """
        var x;
        while x >= 1 do
            if * then x := x - 1 else x := x + 1 fi
        od
        """
        cfg = build_cfg(parse_program(source))
        inv = InvariantMap.from_strings(cfg, {i: "x >= 0" for i in range(1, 5)})
        with pytest.raises(InfeasibleError):
            synthesize_rsm(cfg, inv, {"x": 10})

    def test_nonterminating_loop_has_no_rsm(self):
        cfg = build_cfg(parse_program("var x; while x >= 0 do x := x + 1 od"))
        inv = InvariantMap.from_strings(cfg, {1: "x >= 0", 2: "x >= 0"})
        with pytest.raises(InfeasibleError):
            synthesize_rsm(cfg, inv, {"x": 0})

    def test_certify_concentration_returns_none_when_infeasible(self):
        cfg = build_cfg(parse_program("var x; while x >= 0 do x := x + 1 od"))
        inv = InvariantMap.from_strings(cfg, {1: "x >= 0", 2: "x >= 0"})
        assert certify_concentration(cfg, inv, {"x": 0}) is None

    def test_certify_concentration_returns_none_when_highs_cannot_settle(
        self, monkeypatch, rdwalk_cfg, rdwalk_invariants
    ):
        # Presolve says kUnbounded and the presolve-off retry kUnknown:
        # the RSM LP is undecided, so concentration is unverified rather
        # than the whole analysis failing.
        real = lp_module._cached_solver

        class Undecided:
            def __init__(self, solver, status):
                self._solver, self._status = solver, status

            def __getattr__(self, attr):
                return getattr(self._solver, attr)

            def getModelStatus(self):
                return getattr(type(self._solver.getModelStatus()), self._status)

        def cached(h, presolve):
            return Undecided(real(h, presolve), "kUnbounded" if presolve is None else "kUnknown")

        monkeypatch.setattr(lp_module, "_cached_solver", cached)
        with pytest.raises(SynthesisError, match="kUnbounded with presolve on, kUnknown"):
            synthesize_rsm(rdwalk_cfg, rdwalk_invariants, {"x": 10})
        assert certify_concentration(rdwalk_cfg, rdwalk_invariants, {"x": 10}) is None

    def test_epsilon_must_be_positive(self, rdwalk_cfg, rdwalk_invariants):
        with pytest.raises(ValueError):
            synthesize_rsm(rdwalk_cfg, rdwalk_invariants, {"x": 1}, epsilon=0.0)

    def test_unbounded_update_blocks_concentration_flag(self):
        source = """
        var a;
        while a >= 5 do
            a := 0.5 * a
        od
        """
        cfg = build_cfg(parse_program(source))
        inv = InvariantMap.from_strings(cfg, {1: "a >= 0", 2: "a >= 5"})
        cert = certify_concentration(cfg, inv, {"a": 100})
        if cert is not None:
            assert not cert.certifies_concentration

    @pytest.mark.parametrize("name", ["random_walk", "pollutant_disposal"])
    def test_bounded_updates_use_the_invariants_classify_uses(self, name):
        # Their copies like ``y := r`` are bounded only given the
        # invariant's range of ``y``: the RSM's verdict must match the
        # regime classification's, and no false warning may surface.
        bench = get_benchmark(name)
        inv = bench.invariant_map()
        assert classify(bench.cfg, inv).name == "signed-bounded-update"
        cert = certify_concentration(bench.cfg, inv, bench.init)
        assert cert is not None and cert.certifies_concentration
        result = bench.analyze(check_concentration=True)
        assert not any("concentration unverified" in w for w in result.warnings)

    def test_expected_time_scales_with_epsilon(self, rdwalk_cfg, rdwalk_invariants):
        c1 = synthesize_rsm(rdwalk_cfg, rdwalk_invariants, {"x": 50}, epsilon=1.0)
        c2 = synthesize_rsm(rdwalk_cfg, rdwalk_invariants, {"x": 50}, epsilon=2.0)
        assert c2.expected_time_bound == pytest.approx(c1.expected_time_bound, rel=0.5)
