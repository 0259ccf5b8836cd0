"""Unit tests for the tail-bound (concentration) analysis subsystem."""

import math

import pytest

from repro.analysis import TailBound, analyze, derive_tail_bound
from repro.analysis.tails import DEFAULT_TAIL_HORIZON
from repro.core.preexpectation import step_difference_cases
from repro.core.synthesis import difference_bound
from repro.errors import InfeasibleError, UnboundedError
from repro.invariants import InvariantMap
from repro.polynomials import Polynomial
from repro.programs import get_benchmark
from repro.semantics import build_cfg
from repro.syntax import parse_program


def _rdwalk_result(**kwargs):
    bench = get_benchmark("rdwalk")
    return analyze(bench, degree=1, **kwargs)


class TestStepDifferenceCases:
    def test_assignment_keeps_sampling_variable_with_support(self, rdwalk_cfg):
        h = {label.id: Polynomial.variable("x") * 2.0 for label in rdwalk_cfg}
        assign = next(l for l in rdwalk_cfg if l.kind == "assign")
        (case,) = step_difference_cases(rdwalk_cfg, h, assign)
        # diff = 2(x + r) - 2x = 2r: the raw sampling variable survives
        # (no expectation), and its support enters as constraints.
        (rvar,) = rdwalk_cfg.rvars
        assert case.diff.variables() == frozenset({rvar})
        assert len(case.support) == 2  # r - lo >= 0, hi - r >= 0
        assert all(g.evaluate_numeric({rvar: 1.0}) >= 0 for g in case.support)
        assert all(g.evaluate_numeric({rvar: -1.0}) >= 0 for g in case.support)

    def test_tick_includes_cost(self, rdwalk_cfg):
        h = {label.id: Polynomial.zero() for label in rdwalk_cfg}
        tick = next(l for l in rdwalk_cfg if l.kind == "tick")
        (case,) = step_difference_cases(rdwalk_cfg, h, tick)
        assert case.diff.evaluate_numeric({"x": 5.0}) == pytest.approx(1.0)

    def test_unbounded_sampling_support_raises(self, rdwalk_cfg):
        class UnboundedDist:
            def support_bounds(self):
                return (float("-inf"), float("inf"))

        (rvar,) = rdwalk_cfg.rvars
        rdwalk_cfg.rvars[rvar] = UnboundedDist()  # function-scoped fixture
        h = {label.id: Polynomial.variable("x") for label in rdwalk_cfg}
        assign = next(l for l in rdwalk_cfg if l.kind == "assign")
        with pytest.raises(UnboundedError):
            step_difference_cases(rdwalk_cfg, h, assign)

    def test_branch_yields_guarded_cases_for_both_sides(self, rdwalk_cfg):
        h = {label.id: Polynomial.variable("x") for label in rdwalk_cfg}
        branch = next(l for l in rdwalk_cfg if l.kind == "branch")
        cases = step_difference_cases(rdwalk_cfg, h, branch)
        assert len(cases) == 2
        assert all(case.guard for case in cases)


class TestDifferenceBound:
    def test_rdwalk_certificate_has_small_constant_bound(self):
        result = _rdwalk_result()
        c = difference_bound(result.cfg, result.invariants, result.upper.h)
        # Steps move x by +-1 and h by 2 per unit, plus the unit tick.
        assert 0.0 < c <= 4.0

    def test_zero_template_has_zero_bound_modulo_cost(self):
        # With h == 0 everywhere the only movement of X is the tick.
        program = parse_program("var x;\nwhile x >= 1 do\n x := x - 1;\n tick(1)\nod")
        cfg = build_cfg(program)
        inv = InvariantMap.from_strings(cfg, {1: "x >= 0", 2: "x >= 1", 3: "x >= 1"})
        h = {label.id: Polynomial.zero() for label in cfg}
        c = difference_bound(cfg, inv, h)
        assert c == pytest.approx(1.0)

    def test_unbounded_gradient_is_infeasible(self):
        # A quadratic h over an unbounded invariant has unbounded steps.
        result = _rdwalk_result()
        h = {
            label_id: poly * poly if not poly.is_zero() else poly
            for label_id, poly in result.upper.h.items()
        }
        with pytest.raises(InfeasibleError):
            difference_bound(result.cfg, result.invariants, h)


class TestTailBoundMath:
    def test_bound_at_matches_azuma_formula(self):
        tail = TailBound(c=2.0, horizon=100, expected=10.0)
        t = 30.0
        assert tail.bound_at(t) == pytest.approx(math.exp(-(t * t) / (2 * 4.0 * 100)))

    def test_bound_clamped_to_one_and_zero_c(self):
        assert TailBound(c=5.0, horizon=10, expected=0.0).bound_at(1e-9) <= 1.0
        assert TailBound(c=5.0, horizon=10, expected=0.0).bound_at(-1.0) == 1.0
        assert TailBound(c=0.0, horizon=10, expected=0.0).bound_at(1.0) == 0.0

    def test_round_trips_through_dict(self):
        result = _rdwalk_result()
        tail = derive_tail_bound(result, horizon=500)
        again = TailBound.from_dict(tail.to_dict())
        assert again == tail

    def test_probes_decrease_and_default_horizon(self):
        result = _rdwalk_result()
        tail = derive_tail_bound(result)
        assert tail.horizon == DEFAULT_TAIL_HORIZON
        bounds = [probe.bound for probe in tail.probes]
        assert bounds == sorted(bounds, reverse=True)
        assert all(0.0 < b <= 1.0 for b in bounds)

    def test_explicit_probes_and_validation(self):
        result = _rdwalk_result()
        tail = derive_tail_bound(result, horizon=100, probes=[5.0, 50.0])
        assert [probe.t for probe in tail.probes] == [5.0, 50.0]
        with pytest.raises(ValueError):
            derive_tail_bound(result, horizon=100, probes=[-1.0])
        with pytest.raises(ValueError):
            derive_tail_bound(result, horizon=0)


class TestAnalyzeWiring:
    def test_analyze_attaches_tail_bound(self):
        result = _rdwalk_result(tails=True, tail_horizon=2000)
        assert result.tail is not None
        assert result.tail.horizon == 2000
        assert result.tail.expected == pytest.approx(result.upper.value)
        assert not result.tail.refit
        assert "tail:" in result.summary()

    def test_analyze_without_tails_attaches_nothing(self):
        result = _rdwalk_result()
        assert result.tail is None

    def test_quadratic_certificate_refits_to_degree_one(self):
        bench = get_benchmark("rdwalk")
        result = analyze(
            bench,
            degree=2,
            tails=True,
            tail_horizon=1000,
        )
        assert result.tail is not None
        # Whether the degree-2 LP picked a linear or genuinely quadratic
        # h, the tail degree must be the one whose difference bound was
        # certified.
        assert result.tail.degree in (1, 2)
        if result.tail.refit:
            assert result.tail.degree == 1
            assert any("refit" in w for w in result.warnings)

    def test_unavailable_tail_is_a_warning_not_an_error(self):
        bench = get_benchmark("pol04")  # quadratic cost: no constant c
        result = analyze(
            bench,
            degree=2,
            tails=True,
        )
        assert result.tail is None
        assert any("tail bound unavailable" in w for w in result.warnings)
