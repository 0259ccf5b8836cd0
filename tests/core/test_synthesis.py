"""Synthesis tests: the paper's Example 7.3 exactly, modes, and errors."""

import pytest

from repro.core import make_template, synthesize, synthesize_plcs, synthesize_pucs
from repro.errors import InfeasibleError
from repro.invariants import InvariantMap
from repro.polynomials import Polynomial
from repro.semantics import build_cfg, simulate
from repro.syntax import parse_program

X = Polynomial.variable("x")


class TestTemplates:
    def test_terminal_pinned_to_zero(self, figure2_cfg):
        template = make_template(figure2_cfg, 2)
        assert template.at(figure2_cfg.exit).is_zero()

    def test_unknown_count(self, figure2_cfg):
        template = make_template(figure2_cfg, 2)
        # 4 non-terminal labels x 6 monomials of degree <= 2 in {x, y}.
        assert len(template.unknowns) == 24

    def test_instantiate(self, figure2_cfg):
        template = make_template(figure2_cfg, 1)
        values = {name: 1.0 for name in template.unknowns}
        numeric = template.instantiate(values)
        assert all(p.is_numeric() for p in numeric.values())

    def test_negative_degree_rejected(self, figure2_cfg):
        with pytest.raises(ValueError):
            make_template(figure2_cfg, -1)


class TestRunningExample:
    """Example 7.3: x0 = 100 gives exactly (1/3)x^2 + (1/3)x = 3366.67."""

    def test_pucs_value(self, figure2_cfg, figure2_invariants):
        result = synthesize_pucs(figure2_cfg, figure2_invariants, {"x": 100, "y": 0}, degree=2)
        assert result.value == pytest.approx(10100 / 3, rel=1e-6)

    def test_pucs_polynomial(self, figure2_cfg, figure2_invariants):
        result = synthesize_pucs(figure2_cfg, figure2_invariants, {"x": 100, "y": 0}, degree=2)
        expected = X * X / 3 + X / 3
        assert result.bound.almost_equal(expected, tol=1e-6)

    def test_plcs_value(self, figure2_cfg, figure2_invariants):
        result = synthesize_plcs(figure2_cfg, figure2_invariants, {"x": 100, "y": 0}, degree=2)
        # Table 3: (1/3)x^2 + (1/3)x - 2/3.
        assert result.value == pytest.approx(10100 / 3 - 2 / 3, rel=1e-6)

    def test_intermediate_h_matches_figure9(self, figure2_cfg, figure2_invariants):
        result = synthesize_pucs(figure2_cfg, figure2_invariants, {"x": 100, "y": 0}, degree=2)
        # h(l3) = x^2/3 + 2x/3 per Figure 9 (up to LP degeneracy the
        # value at the anchor must agree).
        expected = (X * X / 3 + 2 * X / 3).evaluate_numeric({"x": 100.0})
        assert result.h[3].evaluate_numeric({"x": 100.0, "y": 0.0}) == pytest.approx(
            expected, rel=1e-6
        )

    def test_bound_at_other_valuations(self, figure2_cfg, figure2_invariants):
        result = synthesize_pucs(figure2_cfg, figure2_invariants, {"x": 100, "y": 0}, degree=2)
        assert result.bound_at({"x": 10.0}) == pytest.approx((100 + 10) / 3, rel=1e-6)

    def test_degree_one_infeasible(self, figure2_cfg, figure2_invariants):
        # The true cost is quadratic: no linear PUCS exists.
        with pytest.raises(InfeasibleError):
            synthesize_pucs(figure2_cfg, figure2_invariants, {"x": 100, "y": 0}, degree=1)

    def test_degree_three_still_tight(self, figure2_cfg, figure2_invariants):
        result = synthesize_pucs(figure2_cfg, figure2_invariants, {"x": 100, "y": 0}, degree=3)
        assert result.value == pytest.approx(10100 / 3, rel=1e-4)


class TestRdwalk:
    def test_exact_bounds(self, rdwalk_cfg, rdwalk_invariants):
        ub = synthesize_pucs(rdwalk_cfg, rdwalk_invariants, {"x": 50}, degree=1)
        lb = synthesize_plcs(rdwalk_cfg, rdwalk_invariants, {"x": 50}, degree=1)
        assert ub.value == pytest.approx(100.0, rel=1e-6)
        assert lb.value == pytest.approx(98.0, rel=1e-6)

    def test_bounds_bracket_simulation(self, rdwalk_cfg, rdwalk_invariants):
        ub = synthesize_pucs(rdwalk_cfg, rdwalk_invariants, {"x": 50}, degree=1)
        lb = synthesize_plcs(rdwalk_cfg, rdwalk_invariants, {"x": 50}, degree=1)
        stats = simulate(rdwalk_cfg, {"x": 50}, runs=2000, seed=0)
        margin = 3 * stats.stderr()
        assert lb.value - margin <= stats.mean <= ub.value + margin


class TestNondeterminism:
    SOURCE = """
    var x;
    while x >= 1 do
        x := x - 1;
        if * then tick(2) else tick(1) fi
    od
    """

    def make(self):
        cfg = build_cfg(parse_program(self.SOURCE))
        inv = InvariantMap.from_strings(
            cfg, {1: "x >= 0", 2: "x >= 1", 3: "x >= 0", 4: "x >= 0", 5: "x >= 0"}
        )
        return cfg, inv

    def test_pucs_assumes_demonic_max(self):
        cfg, inv = self.make()
        ub = synthesize_pucs(cfg, inv, {"x": 10}, degree=1)
        assert ub.value == pytest.approx(20.0, rel=1e-6)  # scheduler picks tick(2)

    def test_plcs_enumerates_policies(self):
        cfg, inv = self.make()
        lb = synthesize_plcs(cfg, inv, {"x": 10}, degree=1)
        # Best policy also picks tick(2); the real-valued relaxation of the
        # exit region (x in [0, 1]) costs the additive constant 2.
        assert lb.value == pytest.approx(18.0, rel=1e-6)
        assert lb.nondet_choices is not None

    def test_plcs_with_forced_policy(self):
        cfg, inv = self.make()
        (nd,) = cfg.nondet_labels()
        lb = synthesize_plcs(cfg, inv, {"x": 10}, degree=1, nondet_choices={nd.id: 1})
        assert lb.value == pytest.approx(9.0, rel=1e-6)  # forced onto tick(1)


class TestModes:
    def test_nonnegative_mode_forces_nonneg_h(self):
        source = """
        var x;
        while x >= 1 do
            x := x - 1;
            tick(1); tick(-0.5)
        od
        """
        cfg = build_cfg(parse_program(source))
        inv = InvariantMap.from_strings(cfg, {i: "x >= 0" for i in range(1, 6)})
        inv.set(2, "x >= 1")
        plain = synthesize(cfg, inv, {"x": 10}, kind="upper", degree=1)
        assert plain.value == pytest.approx(5.0, rel=1e-6)
        for label_id, poly in plain.h.items():
            del label_id, poly  # h may be negative somewhere; that is fine here
        nonneg = synthesize(cfg, inv, {"x": 10}, kind="upper", degree=1, nonnegative=True)
        assert nonneg.value >= plain.value - 1e-9

    def test_invalid_kind_rejected(self, rdwalk_cfg, rdwalk_invariants):
        with pytest.raises(ValueError):
            synthesize(rdwalk_cfg, rdwalk_invariants, {"x": 1}, kind="sideways")

    def test_multiplicand_cap_option(self, figure2_cfg, figure2_invariants):
        result = synthesize_pucs(
            figure2_cfg, figure2_invariants, {"x": 100, "y": 0}, degree=2, max_multiplicands=3
        )
        assert result.value == pytest.approx(10100 / 3, rel=1e-6)

    def test_too_small_cap_can_fail(self, figure2_cfg, figure2_invariants):
        with pytest.raises(InfeasibleError):
            synthesize_pucs(
                figure2_cfg, figure2_invariants, {"x": 100, "y": 0}, degree=2, max_multiplicands=0
            )

    def test_result_metadata(self, rdwalk_cfg, rdwalk_invariants):
        result = synthesize_pucs(rdwalk_cfg, rdwalk_invariants, {"x": 10}, degree=1)
        assert result.kind == "upper"
        assert result.degree == 1
        assert result.lp_variables > 0
        assert result.lp_equalities > 0
        assert result.runtime >= 0.0
        assert "upper" in repr(result)


class TestPolicyFallback:
    """Regression tests: PLCS policy handling at / beyond the
    enumeration cap, and NaN-safe best-policy selection."""

    @staticmethod
    def _many_nondet_cfg(blocks):
        body = "; ".join("if * then tick(1) else tick(1) fi" for _ in range(blocks))
        return build_cfg(parse_program(f"var x; {body}"))

    def test_fallback_marks_result_non_enumerated(self):
        from repro.core.synthesis import _MAX_NONDET_ENUMERATION

        cfg = self._many_nondet_cfg(_MAX_NONDET_ENUMERATION + 1)
        result = synthesize(cfg, InvariantMap.trivial(), {"x": 0}, kind="lower", degree=1)
        assert result.policy_enumerated is False
        assert any("enumeration" in w for w in result.warnings)
        # Every branch ticks 1, so the bound itself is still exact.
        assert result.value == pytest.approx(_MAX_NONDET_ENUMERATION + 1, rel=1e-9)

    def test_enumerated_result_has_no_fallback_warning(self):
        cfg = self._many_nondet_cfg(2)
        result = synthesize(cfg, InvariantMap.trivial(), {"x": 0}, kind="lower", degree=1)
        assert result.policy_enumerated is True
        assert result.warnings == []

    def test_fallback_warning_reaches_analysis_result(self):
        from repro.analysis import analyze
        from repro.core.synthesis import _MAX_NONDET_ENUMERATION

        blocks = _MAX_NONDET_ENUMERATION + 1
        body = "; ".join("if * then tick(1) else tick(1) fi" for _ in range(blocks))
        result = analyze(f"var x; {body}", init={"x": 0}, degree=1)
        assert result.lower is not None
        assert any("enumeration" in w for w in result.warnings)

    @staticmethod
    def _nan_objectives(monkeypatch, which):
        """Make the LP layer return a NaN objective on the solves whose
        (0-based) index ``which`` accepts; returns the solve counter."""
        from repro.core import lp as lp_module

        real_solve = lp_module.LinearProgram.solve
        calls = []

        def nan_solve(self):
            solution = real_solve(self)
            if which(len(calls)):
                solution.objective = float("nan")
            calls.append(solution)
            return solution

        monkeypatch.setattr(lp_module.LinearProgram, "solve", nan_solve)
        return calls

    def test_nan_candidate_skipped_in_policy_loop(self, monkeypatch):
        """A NaN objective from one policy must lose to any real value."""
        cfg = self._many_nondet_cfg(1)
        calls = self._nan_objectives(monkeypatch, lambda index: index == 0)
        result = synthesize(cfg, InvariantMap.trivial(), {"x": 0}, kind="lower", degree=1)
        assert len(calls) == 2
        assert result.value == result.value  # not NaN
        assert result.value == pytest.approx(1.0, rel=1e-9)

    def test_all_nan_policies_raise(self, monkeypatch):
        cfg = self._many_nondet_cfg(1)
        self._nan_objectives(monkeypatch, lambda index: True)
        with pytest.raises(InfeasibleError, match="NaN"):
            synthesize(cfg, InvariantMap.trivial(), {"x": 0}, kind="lower", degree=1)

    def test_nan_lp_objective_raises(self, monkeypatch, rdwalk_cfg, rdwalk_invariants):
        """A NaN straight from the LP layer surfaces as SynthesisError."""
        from repro.errors import SynthesisError

        self._nan_objectives(monkeypatch, lambda index: True)
        with pytest.raises(SynthesisError, match="NaN"):
            synthesize_pucs(rdwalk_cfg, rdwalk_invariants, {"x": 10}, degree=1)
