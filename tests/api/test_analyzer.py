"""`repro.api.Analyzer` behavior: target resolution, cache ownership,
staged methods and batch fan-out."""

import pytest

from repro.api import AnalysisOptions, AnalysisRequest, Analyzer
from repro.programs import get_benchmark

SOURCE = """
var x;
while x >= 1 do
    x := x - 1;
    tick(1)
od
"""


class TestTargetResolution:
    def test_benchmark_name(self):
        report = Analyzer().analyze("rdwalk", degree=1)
        assert report.status == "ok"
        assert report.name == "rdwalk"

    def test_unknown_name_suggests(self):
        with pytest.raises(KeyError, match="rdwalk"):
            Analyzer().analyze("rdwlk")

    def test_source_text(self):
        report = Analyzer().analyze(SOURCE, init={"x": 10}, invariants={1: "x >= 0"})
        assert report.status == "ok"
        assert report.upper_value == pytest.approx(10.0)

    def test_benchmark_object(self):
        bench = get_benchmark("rdwalk")
        by_object = Analyzer().analyze(bench)
        by_name = Analyzer().analyze("rdwalk")
        assert by_object.upper_value == by_name.upper_value

    def test_parsed_program(self):
        from repro import parse_program

        report = Analyzer().analyze(
            parse_program(SOURCE, name="countdown"), init={"x": 4}, invariants={1: "x >= 0"}
        )
        assert report.status == "ok"
        assert report.name == "countdown"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            Analyzer().analyze(42)


class TestSessionOptions:
    def test_session_defaults_apply(self):
        analyzer = Analyzer(AnalysisOptions(degree=1))
        assert analyzer.analyze("rdwalk").degree == 1

    def test_per_call_overrides_win(self):
        analyzer = Analyzer(AnalysisOptions(degree=1))
        assert analyzer.analyze("rdwalk", degree=2).degree == 2

    def test_explicit_options_replace_session(self):
        analyzer = Analyzer(AnalysisOptions(degree=1, tag="session"))
        report = analyzer.analyze("rdwalk", AnalysisOptions(degree=2))
        assert report.degree == 2
        assert report.tag is None  # the session tag is not inherited

    def test_reports_name_the_one_solver(self):
        analyzer = Analyzer()
        assert analyzer.analyze("rdwalk").solver == "highs"
        reports = analyzer.analyze_batch([AnalysisRequest(benchmark="rdwalk"), {"benchmark": "ber"}])
        assert [r.solver for r in reports] == ["highs", "highs"]

    def test_solver_is_not_an_option(self):
        with pytest.raises(TypeError):
            Analyzer(solver="highs")
        with pytest.raises(ValueError, match="solver"):
            Analyzer().analyze("rdwalk", solver="highs")


class TestCacheOwnership:
    def test_cache_true_uses_default_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        analyzer = Analyzer(cache=True)
        assert str(analyzer.cache.root) == str(tmp_path / "store")

    def test_cache_path_and_warm_hits(self, tmp_path):
        root = tmp_path / "cache"
        first = Analyzer(cache=root)
        cold = first.analyze("rdwalk")
        second = Analyzer(cache=root)
        warm = second.analyze("rdwalk")
        assert second.cache.hits == 1
        assert warm.to_dict() == cold.to_dict()


class TestStagedMethods:
    def test_parse_build_cfg(self):
        analyzer = Analyzer()
        program = analyzer.parse(SOURCE, name="countdown")
        assert program.name == "countdown"
        cfg = analyzer.build_cfg(program)
        assert cfg is not None
        assert analyzer.build_cfg(SOURCE).pvars == cfg.pvars

    def test_derive_invariants_matches_pipeline(self):
        analyzer = Analyzer()
        inv = analyzer.derive_invariants(SOURCE, init={"x": 5}, invariants={1: "x >= 0"})
        result = analyzer.synthesize(SOURCE, init={"x": 5}, invariants={1: "x >= 0"})
        assert {label for label, _ in inv.items()} == {
            label for label, _ in result.invariants.items()
        }

    def test_synthesize_returns_rich_result(self):
        result = Analyzer().synthesize("rdwalk")
        assert result.upper is not None
        assert result.cfg is not None
        assert result.mode.name == "signed-bounded-update"

    def test_synthesize_auto_escalates(self):
        result = Analyzer(AnalysisOptions(degree="auto")).synthesize("pol04")
        assert result.upper.degree == 2  # quadratic benchmark needs d=2

    def test_synthesize_exact_floats_no_pretty_roundtrip(self):
        from repro import parse_program

        third = 1.0 / 3.0
        source = (
            "var x;\nwhile x >= 1 do\n"
            f"    if prob({third!r}) then x := x - 1 else skip fi;\n"
            "    tick(1)\nod"
        )
        program = parse_program(source)
        result = Analyzer().synthesize(program, init={"x": 1}, invariants={1: "x >= 0"})
        # E[iterations] = 3 exactly only if the probability survived
        assert result.upper_bound is not None

    def test_fingerprint_stability(self):
        analyzer = Analyzer()
        assert analyzer.fingerprint("rdwalk") == analyzer.fingerprint("rdwalk")
        assert analyzer.fingerprint("rdwalk") != analyzer.fingerprint("rdwalk", degree=3)


class TestBatchAndPool:
    def test_analyze_batch_mixes_requests_and_specs(self):
        reports = Analyzer().analyze_batch(
            [AnalysisRequest(benchmark="rdwalk"), {"benchmark": "ber"}]
        )
        assert [r.name for r in reports] == ["rdwalk", "ber"]
        assert all(r.ok for r in reports)

    def test_analyze_batch_full_spec_object(self):
        reports = Analyzer().analyze_batch(
            [{"defaults": {"degree": 1}, "tasks": [{"benchmark": "rdwalk"}]}]
        )
        assert reports[0].degree == 1

    def test_session_pool_reused_and_closed(self):
        analyzer = Analyzer(jobs=2)
        try:
            first = analyzer.analyze_batch([AnalysisRequest(benchmark="rdwalk")] * 2)
            pool = analyzer._pool
            assert pool is not None
            second = analyzer.analyze_batch([AnalysisRequest(benchmark="ber")])
            assert analyzer._pool is pool  # same pool across batches
            assert all(r.ok for r in first + second)
        finally:
            analyzer.close()
        assert analyzer._pool is None
        with pytest.raises(RuntimeError, match="closed"):
            analyzer.analyze_batch([AnalysisRequest(benchmark="rdwalk")])

    def test_context_manager_closes(self):
        with Analyzer(jobs=2) as analyzer:
            analyzer.analyze_batch([AnalysisRequest(benchmark="rdwalk")])
        assert analyzer._closed


class TestLowerSkippedSurfacing:
    def test_regime_without_lower_bound_reports_reason(self):
        # rdbub runs in the nonnegative regime: no PLCS lower bound.
        report = Analyzer().analyze("rdbub")
        assert report.lower_value is None
        assert report.lower_skipped is not None
        assert "admits no lower bound" in report.lower_skipped

    def test_summary_mentions_skip(self):
        result = Analyzer().synthesize("rdbub")
        assert result.lower is None
        assert "lower:   skipped" in result.summary()

    def test_no_reason_when_lower_exists(self):
        report = Analyzer().analyze("rdwalk")
        assert report.lower_value is not None
        assert report.lower_skipped is None

    def test_no_reason_when_lower_not_requested(self):
        report = Analyzer().analyze("rdwalk", compute_lower=False)
        assert report.lower_value is None
        assert report.lower_skipped is None


class TestReviewRegressions:
    def test_lazy_pool_init_is_race_free(self):
        import threading

        analyzer = Analyzer(jobs=2)
        pools = []
        barrier = threading.Barrier(4)

        def grab():
            barrier.wait()
            pools.append(analyzer._session_pool())

        threads = [threading.Thread(target=grab) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len({id(p) for p in pools}) == 1
        finally:
            analyzer.close()

    def test_options_path_supports_check_concentration(self):
        bench = get_benchmark("rdwalk")
        result = bench.analyze(AnalysisOptions(degree=1), check_concentration=True)
        assert result.concentration is not None

    def test_lent_analyzer_survives_server_close(self):
        from repro.service import create_server

        session = Analyzer()
        server = create_server(host="127.0.0.1", port=0, analyzer=session)
        server.server_close()
        assert session.analyze("rdwalk").status == "ok"  # still usable
        owned = create_server(host="127.0.0.1", port=0)
        owned_session = owned.analyzer
        owned.server_close()
        assert owned_session._closed  # server-built session is released
