"""Side-condition checker tests (Definitions 6.9 etc.)."""

from repro.core import (
    check_bounded_costs,
    check_bounded_updates,
    check_nonnegative_costs,
    classify,
)
from repro.invariants import InvariantMap
from repro.semantics import build_cfg
from repro.syntax import parse_program


def make(source):
    return build_cfg(parse_program(source))


class TestBoundedUpdates:
    def test_shift_updates_pass(self):
        cfg = make("var x; sample r ~ discrete(1: 0.5, -1: 0.5); x := x + r; x := x - 2")
        assert check_bounded_updates(cfg)

    def test_copy_flagged_without_invariant(self):
        cfg = make("var x, i; x := i")
        report = check_bounded_updates(cfg)
        assert not report
        assert report.offending_labels == [1]

    def test_copy_passes_with_bounding_invariant(self):
        cfg = make("var x, i; x := i")
        inv = InvariantMap.from_strings(cfg, {1: "i >= 0 and 5 - i >= 0 and x >= 0 and 5 - x >= 0"})
        assert check_bounded_updates(cfg, inv)

    def test_scaling_flagged(self):
        cfg = make("var a; a := 1.1 * a")
        assert not check_bounded_updates(cfg)

    def test_scaling_passes_on_bounded_range(self):
        cfg = make("var a; a := 1.1 * a")
        inv = InvariantMap.from_strings(cfg, {1: "a >= 0 and 10 - a >= 0"})
        assert check_bounded_updates(cfg, inv)

    def test_unbounded_distribution_flagged(self):
        # A binomial is bounded; build an unbounded one via a stub.
        cfg = make("var x; sample r ~ binomial(3, 0.5); x := x + r")
        assert check_bounded_updates(cfg)


class TestCostChecks:
    def test_constant_costs(self):
        cfg = make("var x; tick(1); tick(2.5)")
        assert check_bounded_costs(cfg)
        assert check_nonnegative_costs(cfg)

    def test_variable_cost_not_bounded(self):
        cfg = make("var x; tick(x)")
        assert not check_bounded_costs(cfg)

    def test_negative_constant_cost(self):
        cfg = make("var x; tick(-1)")
        report = check_nonnegative_costs(cfg)
        assert not report
        assert report.offending_labels == [1]

    def test_variable_cost_nonnegative_with_invariant(self):
        cfg = make("var x; tick(x)")
        inv = InvariantMap.from_strings(cfg, {1: "x >= 0"})
        assert check_nonnegative_costs(cfg, inv)

    def test_variable_cost_unknown_sign_without_invariant(self):
        cfg = make("var x; tick(x)")
        assert not check_nonnegative_costs(cfg)

    def test_quadratic_cost_certified(self):
        cfg = make("var a, b; tick(a * b)")
        inv = InvariantMap.from_strings(cfg, {1: "a >= 0 and b >= 0"})
        assert check_nonnegative_costs(cfg, inv)


class TestClassify:
    def test_signed_bounded_update(self):
        cfg = make("var x; while x >= 1 do x := x - 1; tick(-1) od")
        mode = classify(cfg)
        assert mode.name == "signed-bounded-update"
        assert mode.upper and mode.lower
        assert not mode.require_nonnegative_template

    def test_nonnegative_general_update(self):
        cfg = make("var a; while a >= 5 do a := 1.1 * a; tick(1) od")
        mode = classify(cfg)
        assert mode.name == "nonnegative-general-update"
        assert mode.upper and not mode.lower
        assert mode.require_nonnegative_template

    def test_unsupported(self):
        cfg = make("var a; while a >= 5 do a := 1.1 * a; tick(-1) od")
        mode = classify(cfg)
        assert mode.name == "unsupported"
        assert not mode.upper and not mode.lower

    def test_reports_attached(self):
        cfg = make("var x; tick(1)")
        mode = classify(cfg)
        assert set(mode.reports) == {"bounded_updates", "nonnegative_costs", "bounded_costs"}

    def test_each_distinct_lp_is_solved_once(self):
        # pollutant_disposal certifies 5x on 1 <= x <= 10, 5y on
        # 1 <= y <= 10 (the same LP) and -0.2n on n >= 2.
        from repro.core.lp import solve_count
        from repro.invariants.generator import strengthen_invariants
        from repro.programs import get_benchmark

        bench = get_benchmark("pollutant_disposal")
        inv = bench.invariant_map()
        strengthen_invariants(inv, bench.cfg, bench.init, "interval")
        before = solve_count()
        mode = classify(bench.cfg, inv)
        assert solve_count() - before == 2
        assert mode.reports["nonnegative_costs"].offending_labels == [9]
