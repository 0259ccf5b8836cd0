"""Seeded-defect corpus (one fixture per REP code) and the registry sweep."""

import pytest

from repro.api import AnalysisOptions, Analyzer
from repro.check import check_request
from repro.programs import all_benchmarks

#: Lints source text as a one-program request would.
lint = Analyzer().lint


def _only(result, code):
    """The diagnostics with ``code``; asserts at least one exists."""
    found = [d for d in result.diagnostics if d.code == code]
    assert found, f"expected {code}, got {sorted(result.codes())}"
    return found


class TestSeededDefects:
    def test_rep001_undeclared_init_var(self):
        result = lint("var x;\nx := 1;\ntick(x)\n", init={"z": 5.0})
        (diag,) = _only(result, "REP001")
        assert diag.severity == "error"
        assert "'z'" in diag.message or "z" in diag.message
        assert diag.line is None  # program-level finding, no source anchor
        assert set(result.codes()) == {"REP001"}

    def test_rep002_read_before_assignment(self):
        result = lint("var x, y;\nx := y + 1;\ntick(x)\n")
        (diag,) = _only(result, "REP002")
        assert diag.severity == "warning"
        assert "'y'" in diag.message
        assert (diag.line, diag.column) == (2, 1)
        assert set(result.codes()) == {"REP002"}

    def test_rep002_silenced_by_init(self):
        result = lint("var x, y;\nx := y + 1;\ntick(x)\n", init={"y": 3.0})
        assert "REP002" not in set(result.codes())

    def test_rep003_rep004_dead_then_branch(self):
        source = (
            "var x;\n"
            "x := 1;\n"
            "if x <= 0 then\n"
            "  tick(5)\n"
            "else\n"
            "  skip\n"
            "fi;\n"
            "tick(x)\n"
        )
        result = lint(source)
        (dead_stmt,) = _only(result, "REP003")
        assert dead_stmt.severity == "warning"
        assert dead_stmt.line == 4  # the tick(5) inside the dead branch
        (dead_edge,) = _only(result, "REP004")
        assert dead_edge.severity == "warning"
        assert dead_edge.line == 3  # the branch itself
        assert "then-branch" in dead_edge.message
        assert set(result.codes()) == {"REP003", "REP004"}

    def test_rep005_zero_cost_tick(self):
        result = lint("var x;\nx := 0;\ntick(x)\n")
        (diag,) = _only(result, "REP005")
        assert diag.severity == "warning"
        assert (diag.line, diag.column) == (3, 1)
        assert set(result.codes()) == {"REP005"}

    def test_rep006_unbounded_support(self):
        source = (
            "var x;\n"
            "sample r ~ geometric(0.5);\n"
            "x := 10;\n"
            "while x >= 1 do\n"
            "  x := x - r;\n"
            "  tick(1)\n"
            "od\n"
        )
        result = lint(source)
        (diag,) = _only(result, "REP006")
        assert diag.severity == "warning"
        assert "'r'" in diag.message and "unbounded" in diag.message
        assert set(result.codes()) == {"REP006"}

    def test_rep007_nondet_cap(self):
        body = "".join(
            "if * then x := x + 1 else skip fi;\n" for _ in range(7)
        )
        result = lint(f"var x;\nx := 0;\n{body}tick(x)\n")
        (diag,) = _only(result, "REP007")
        assert diag.severity == "warning"
        assert "7 nondeterministic labels" in diag.message
        # Six labels stay under the enumeration cap: no finding.
        body6 = "".join("if * then x := x + 1 else skip fi;\n" for _ in range(6))
        assert "REP007" not in lint(f"var x;\nx := 0;\n{body6}tick(x)\n").codes()

    def test_rep008_divergent_loop(self):
        result = lint(
            "var x;\nwhile x <= 0 do\n  tick(1)\nod\n", init={"x": 0.0}
        )
        (diag,) = _only(result, "REP008")
        assert diag.severity == "error"
        assert (diag.line, diag.column) == (2, 1)
        assert diag.label == 1

    def test_rep009_unused_variable(self):
        result = lint("var x, y;\nx := 1;\ntick(x)\n")
        (diag,) = _only(result, "REP009")
        assert diag.severity == "warning"
        assert "'y'" in diag.message
        assert set(result.codes()) == {"REP009"}

    def test_rep009_unused_sampling_variable(self):
        source = "var x;\nsample r ~ uniform(0, 1);\nx := 1;\ntick(x)\n"
        result = lint(source)
        (diag,) = _only(result, "REP009")
        assert "'r'" in diag.message
        # The dead sampling variable must NOT also trip the unbounded-
        # support or any other rule.
        assert set(result.codes()) == {"REP009"}

    LOOP = "var x;\nx := 5;\nwhile x >= 1 do\n  x := x - 1;\n  tick(1)\nod\n"

    def test_rep010_entry_invariant_excludes_init(self):
        # At entry (label 1, before the first assignment) x is 0.
        result = lint(self.LOOP, invariants={1: "x >= 100"})
        (diag,) = _only(result, "REP010")
        assert diag.severity == "error"
        assert diag.label == 1
        assert "initial valuation" in diag.message

    def test_rep010_invariant_disjoint_from_fixpoint(self):
        # At the loop head x is confined to [0, 5] by the abstract
        # fixpoint; "x >= 100" excludes the whole box.
        result = lint(self.LOOP, invariants={2: "x >= 100"})
        (diag,) = _only(result, "REP010")
        assert diag.severity == "error"
        assert diag.label == 2
        assert "excludes every reachable state" in diag.message

    def test_rep010_sound_invariant_is_silent(self):
        result = lint(self.LOOP, invariants={2: "x >= 0"})
        assert "REP010" not in result.codes()

    def test_rep011_degenerate_probability(self):
        source = "var x;\nx := 1;\nif prob(1.0) then\n  tick(x)\nelse\n  skip\nfi\n"
        result = lint(source)
        (diag,) = _only(result, "REP011")
        assert diag.severity == "warning"
        assert "p=1" in diag.message
        assert (diag.line, diag.column) == (3, 1)

    def test_rep012_entry_guard_false(self):
        source = "var x;\nwhile x >= 1 do\n  x := x - 1;\n  tick(1)\nod\n"
        result = lint(source, init={"x": 0.0})
        (diag,) = _only(result, "REP012")
        assert diag.severity == "warning"
        assert diag.label == 1
        assert (diag.line, diag.column) == (2, 1)

    def test_clean_program_is_clean(self):
        result = lint(self.LOOP)
        assert result.clean, [d.format() for d in result.diagnostics]


class TestRegistrySweep:
    @pytest.mark.parametrize(
        "bench", all_benchmarks(), ids=lambda bench: bench.name
    )
    def test_benchmark_lints_clean_in_strict(self, bench):
        result = check_request(AnalysisOptions(), bench)
        assert result.clean, [d.format() for d in result.diagnostics]

    @pytest.mark.parametrize(
        "bench", [b for b in all_benchmarks() if b.extra_inits], ids=lambda b: b.name
    )
    def test_table4_inits_lint_clean(self, bench):
        for init in bench.all_inits():
            result = check_request(AnalysisOptions(init=init), bench)
            assert result.clean, (init, [d.format() for d in result.diagnostics])
