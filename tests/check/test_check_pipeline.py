"""The check pass wired through the analysis stack.

Covers ``analyze(check=...)``, strict-mode fail-fast (zero LP solves),
the batch engine's ``status="rejected"`` path, ``Analyzer.lint``, the
``check`` knob on options/requests, and the report schema v5 bridge.
"""

import pytest

from repro.analysis.bounds import analyze
from repro.api import AnalysisOptions, Analyzer, report_from_dict
from repro.batch import AnalysisRequest
from repro.batch.engine import execute_request
from repro.batch.spec import REPORT_SCHEMA
from repro.core.lp import solve_count
from repro.errors import CheckError
from repro.programs import get_benchmark

DIVERGENT = "var x;\nwhile x <= 0 do\n  tick(1)\nod\n"


def _unsound_rdwalk():
    """rdwalk with a deliberately-unsound extra invariant."""
    bench = get_benchmark("rdwalk")
    invariants = dict(bench.invariants)
    entry = bench.cfg.entry
    invariants[entry] = "x >= 1000000000"
    return bench, invariants


class TestAnalyzeCheck:
    def test_off_leaves_diagnostics_none(self):
        bench = get_benchmark("rdwalk")
        result = bench.analyze(AnalysisOptions(compute_lower=False))
        assert result.diagnostics is None

    def test_warn_attaches_empty_list_when_clean(self):
        bench = get_benchmark("rdwalk")
        result = bench.analyze(AnalysisOptions(compute_lower=False, check="warn"))
        assert result.diagnostics == []
        assert result.upper is not None

    def test_warn_attaches_findings_without_blocking(self):
        bench, invariants = _unsound_rdwalk()
        result = analyze(
            bench.program,
            init=dict(bench.init),
            invariants=invariants,
            degree=2,
            compute_lower=False,
            check="warn",
        )
        assert any(d.code == "REP010" for d in result.diagnostics)

    def test_warn_names_the_highs_rejection(self):
        # The unsound entry invariant puts 1e18 coefficients into the
        # degree-2 LP; HiGHS refuses to load it, which is not a proof
        # that no certificate exists.
        bench, invariants = _unsound_rdwalk()
        result = analyze(
            bench.program,
            init=dict(bench.init),
            invariants=invariants,
            degree=2,
            compute_lower=False,
            check="warn",
        )
        assert result.upper is None
        [warning] = [w for w in result.warnings if w.startswith("no degree-2 upper bound")]
        assert "HiGHS rejected the LP" in warning and "in passModel" in warning
        assert "no Handelman certificate" not in warning

    def test_strict_rejects_before_any_lp_solve(self):
        bench, invariants = _unsound_rdwalk()
        before = solve_count()
        with pytest.raises(CheckError) as excinfo:
            analyze(
                bench.program,
                init=dict(bench.init),
                invariants=invariants,
                degree=2,
                check="strict",
            )
        assert solve_count() == before, "strict rejection must not touch the LP"
        assert "REP010" in str(excinfo.value)
        assert any(d.code == "REP010" for d in excinfo.value.diagnostics)

    def test_invalid_mode_rejected(self):
        bench = get_benchmark("rdwalk")
        with pytest.raises(ValueError):
            analyze(bench.program, init=dict(bench.init), check="loud")


class TestEngineGating:
    def test_warn_mode_report_carries_diagnostics(self):
        request = AnalysisRequest(
            benchmark="rdwalk", name="rdwalk-warn", check="warn", compute_lower=False
        )
        report = execute_request(request)
        assert report.status == "ok"
        assert report.diagnostics == []

    def test_off_mode_report_has_none(self):
        request = AnalysisRequest(
            benchmark="rdwalk", name="rdwalk-off", compute_lower=False
        )
        report = execute_request(request)
        assert report.diagnostics is None

    def test_strict_rejection_zero_lp_solves(self):
        bench, invariants = _unsound_rdwalk()
        request = AnalysisRequest(
            source=bench.source,
            name="rdwalk-unsound",
            init=dict(bench.init),
            invariants=invariants,
            check="strict",
        )
        before = solve_count()
        report = execute_request(request)
        assert report.status == "rejected"
        assert "REP010" in (report.error or "")
        assert solve_count() == before, "rejected task must not reach the LP"
        assert any(d["code"] == "REP010" for d in report.diagnostics)

    def test_strict_rejects_divergent_source(self):
        request = AnalysisRequest(
            source=DIVERGENT, name="divergent", init={"x": 0.0}, check="strict"
        )
        report = execute_request(request)
        assert report.status == "rejected"
        assert not report.ok
        assert "REP008" in report.error

    def test_warnings_never_reject(self):
        source = "var x, y;\nx := 5;\nwhile x >= 1 do\n  x := x - 1;\n  tick(1)\nod\n"
        request = AnalysisRequest(
            source=source, name="warn-only", check="strict", compute_lower=False
        )
        report = execute_request(request)
        assert report.status == "ok"
        assert [d["code"] for d in report.diagnostics] == ["REP009"]

    def test_bad_check_value_fails_validation(self):
        with pytest.raises(ValueError):
            AnalysisRequest(benchmark="rdwalk", check="blocking")


class TestAnalyzerFacade:
    def test_lint_benchmark_by_name(self):
        result = Analyzer().lint("rdwalk")
        assert result.clean

    def test_lint_source_with_findings(self):
        result = Analyzer().lint(DIVERGENT, init={"x": 0.0})
        assert [d.code for d in result.diagnostics] == ["REP008"]

    def test_synthesize_strict_raises_check_error(self):
        bench, invariants = _unsound_rdwalk()
        analyzer = Analyzer(AnalysisOptions(check="strict", invariants=invariants))
        with pytest.raises(CheckError):
            analyzer.synthesize(bench.program)

    def test_synthesize_warn_keeps_diagnostics_across_escalation(self):
        # degree="auto" escalates; the lint runs once and its findings
        # must survive to the escalation winner.
        source = "var x, y;\nx := 5;\nwhile x >= 1 do\n  x := x - 1;\n  tick(1)\nod\n"
        analyzer = Analyzer(
            AnalysisOptions(degree="auto", max_degree=2, check="warn", compute_lower=False)
        )
        result = analyzer.synthesize(source)
        assert [d.code for d in result.diagnostics] == ["REP009"]

    def test_options_check_validation(self):
        with pytest.raises(ValueError):
            AnalysisOptions(check="yes")
        options = AnalysisOptions(check="strict")
        assert AnalysisOptions.from_request(options.to_request("rdwalk")).check == "strict"


class TestSchemaV5:
    def test_report_schema_is_v6(self):
        assert REPORT_SCHEMA == "repro-report/v6"
        report = execute_request(
            AnalysisRequest(benchmark="rdwalk", check="warn", compute_lower=False)
        )
        assert report.to_dict()["diagnostics"] == []

    def test_from_dict_reads_v4_and_v5(self):
        report = execute_request(
            AnalysisRequest(benchmark="rdwalk", check="warn", compute_lower=False)
        )
        assert report_from_dict(report.to_dict()).diagnostics == []
        v4 = {k: v for k, v in report.to_dict().items() if k not in ("diagnostics", "invariant_domain")}
        assert report_from_dict(v4).diagnostics is None

    def test_fingerprint_depends_on_check(self):
        from repro.cache import request_fingerprint

        off = request_fingerprint(AnalysisRequest(benchmark="rdwalk"))
        warn = request_fingerprint(AnalysisRequest(benchmark="rdwalk", check="warn"))
        assert off != warn
