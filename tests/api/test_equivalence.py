"""Legacy-path vs `repro.api`-path equivalence.

The redesign's contract: rewiring every front end onto
`Analyzer`/`AnalysisOptions` changes *no* analysis outcome.  These
tests pin that down three ways, over representatives of the table 2, 3
and 5 workloads:

* identical cache fingerprints — a legacy-built `AnalysisRequest` and
  the `Analyzer`-built request for the same work hash the same;
* byte-identical reports through a shared store — the legacy engine's
  cold report is exactly what the api path serves warm (and vice
  versa);
* semantically identical cold reports — modulo wall-clock fields.
"""

import dataclasses
import sys

import pytest

from repro import parse_program
from repro.analysis import bounds
from repro.api import AnalysisOptions, Analyzer
from repro.batch import AnalysisRequest, requests_from_spec, run_batch
from repro.cache import ResultCache, request_key
from repro.check import check_request
from repro.check.interp import analyze_cfg
from repro.check.octagon import analyze_cfg_octagon
from repro.programs import all_benchmarks, get_benchmark

#: (suite, bench_name, extra request fields) — one cheap representative
#: per table workload, coin-flip transformation included for table5.
REPRESENTATIVES = [
    ("table2", "ber", {}),
    ("table2", "rdbub", {}),  # nonnegative regime: exercises lower_skipped
    ("table3", "simple_loop", {}),
    ("table5", "bitcoin_mining", {"nondet_prob": 0.5, "simulate_runs": 20}),
]

#: Every registry benchmark (analyzed at its anchor valuation).
REGISTRY = [bench.name for bench in all_benchmarks()]

#: Report fields that legitimately differ between two executions.
WALL_CLOCK_FIELDS = ("runtime", "analysis_runtime", "upper_runtime", "lower_runtime")


#: Source text shared by the inline-source and parsed-Program rows.
COUNTDOWN = """
var x;
while x >= 1 do
    x := x + (1, -1) : (0.25, 0.75);
    tick(1)
od
"""

#: (row id, program, per-call options): one row per way a front end can
#: name a program and each option the request resolver interprets.
RESOLUTION_MATRIX = [
    ("name+invariants", "rdwalk", {"invariants": {1: "x - 1000 >= 0"}}),
    ("name+no-invariants", "rdwalk", {"invariants": {}, "degree": 1}),
    ("name+nondet_prob", "bitcoin_mining", {"nondet_prob": 0.5}),
    ("name+init", "rdwalk", {"init": {"x": 50}}),
    ("registry-benchmark", get_benchmark("ber"), {}),
    ("adhoc-benchmark", dataclasses.replace(get_benchmark("goods_discount")), {}),
    ("source", COUNTDOWN, {"init": {"x": 20}, "invariants": {1: "x >= 0"}}),
    (
        "program",
        parse_program(COUNTDOWN, name="countdown"),
        {"init": {"x": 20}, "invariants": {1: "x >= 0"}},
    ),
]


def _count_runs(monkeypatch, fixpoint):
    """Count ``fixpoint`` calls through every ``repro`` module that
    imported it."""
    calls = []
    name = fixpoint.__name__

    def counting(*args, **kwargs):
        calls.append(1)
        return fixpoint(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "repro" and getattr(module, name, None) is fixpoint:
            monkeypatch.setattr(module, name, counting)
    return calls


def _rows(inv):
    return [(label, str(region)) for label, region in inv.items()]


def _strip_clock(report_dict):
    return {k: v for k, v in report_dict.items() if k not in WALL_CLOCK_FIELDS}


@pytest.mark.parametrize("suite,bench_name,extra", REPRESENTATIVES)
class TestFingerprints:
    def test_legacy_request_and_api_request_hash_identically(self, suite, bench_name, extra):
        legacy = AnalysisRequest(benchmark=bench_name, **extra)
        api_key = Analyzer().fingerprint(bench_name, **extra)
        assert request_key(legacy) == api_key

    def test_suite_expansion_matches_api_requests(self, suite, bench_name, extra):
        expanded = {
            request_key(r)
            for r in requests_from_spec({"tasks": [{"suite": suite}]})
            if r.benchmark == bench_name and r.init is None
        }
        if suite == "table5":
            # the suite adds the coin flip but no simulation column here
            api_key = Analyzer().fingerprint(bench_name, nondet_prob=0.5)
        else:
            api_key = Analyzer().fingerprint(bench_name)
        assert api_key in expanded


@pytest.mark.parametrize("suite,bench_name,extra", REPRESENTATIVES)
class TestReports:
    def test_cold_reports_semantically_identical(self, suite, bench_name, extra):
        legacy = run_batch([AnalysisRequest(benchmark=bench_name, **extra)])[0]
        api = Analyzer().analyze(bench_name, **extra)
        assert _strip_clock(api.to_dict()) == _strip_clock(legacy.to_dict())

    def test_warm_api_read_of_legacy_write_is_byte_identical(
        self, suite, bench_name, extra, tmp_path
    ):
        store = tmp_path / "store"
        cold = run_batch([AnalysisRequest(benchmark=bench_name, **extra)], cache=ResultCache(store))[0]
        analyzer = Analyzer(cache=store)
        warm = analyzer.analyze(bench_name, **extra)
        assert analyzer.cache.hits == 1
        assert warm.to_dict() == cold.to_dict()

    def test_warm_legacy_read_of_api_write_is_byte_identical(
        self, suite, bench_name, extra, tmp_path
    ):
        store = tmp_path / "store"
        cold = Analyzer(cache=store).analyze(bench_name, **extra)
        cache = ResultCache(store)
        warm = run_batch([AnalysisRequest(benchmark=bench_name, **extra)], cache=cache)[0]
        assert cache.hits == 1
        assert warm.to_dict() == cold.to_dict()


class TestStagedVsEngine:
    @pytest.mark.parametrize("name", ["ber", "simple_loop", "rdbub"])
    def test_synthesize_matches_engine_values(self, name):
        report = Analyzer().analyze(name)
        result = Analyzer().synthesize(name)
        upper = result.upper.value if result.upper else None
        lower = result.lower.value if result.lower else None
        assert upper == report.upper_value
        assert lower == report.lower_value
        assert result.lower_skipped == report.lower_skipped

    @pytest.mark.parametrize("domain", ["interval", "octagon"])
    @pytest.mark.parametrize("name", REGISTRY)
    def test_three_front_ends_agree_under_auto(self, name, domain):
        options = AnalysisOptions(degree="auto", invariant_domain=domain)
        report = Analyzer(options).analyze(name)
        assert report.status == "ok", report.error
        staged = Analyzer(options).synthesize(name)
        direct = get_benchmark(name).analyze(options)
        for result in (staged, direct):
            assert result.degrees_tried == report.degrees_tried
            assert result.degrees_tried[-1] == report.degree
            assert (result.upper.value if result.upper else None) == report.upper_value
            assert (result.lower.value if result.lower else None) == report.lower_value
            assert result.lower_skipped == report.lower_skipped
            assert result.warnings == report.warnings

    @pytest.mark.parametrize("front_end", ["engine", "synthesize", "benchmark"])
    def test_ladder_runs_the_prefix_once(self, monkeypatch, front_end):
        # simple_loop escalates to degree 2 under the octagon domain;
        # the octagon fixpoint must not be rerun per rung, and the
        # ladder reuses the registry benchmark's cached CFG.
        octagon_runs = _count_runs(monkeypatch, analyze_cfg_octagon)
        cfg_builds = []
        original_build = bounds.build_cfg
        monkeypatch.setattr(
            bounds, "build_cfg", lambda program: cfg_builds.append(1) or original_build(program)
        )
        options = AnalysisOptions(degree="auto", invariant_domain="octagon", check="off")
        if front_end == "engine":
            report = Analyzer(options).analyze("simple_loop")
            degrees = report.degrees_tried
        elif front_end == "synthesize":
            degrees = Analyzer(options).synthesize("simple_loop").degrees_tried
        else:
            degrees = get_benchmark("simple_loop").analyze(options).degrees_tried
        assert degrees == [1, 2]
        assert len(octagon_runs) == 1
        assert len(cfg_builds) == 0

    def test_tail_refit_reuses_the_degree_1_rung(self, monkeypatch):
        # bitcoin_pool settles at degree 2, whose certificate has no
        # constant step-difference bound; the tail refits at degree 1,
        # which the ladder already synthesized.
        from repro.analysis import tails

        refits = []
        monkeypatch.setattr(tails, "synthesize", lambda *a, **k: refits.append(1))
        result = get_benchmark("bitcoin_pool").analyze(AnalysisOptions(degree="auto", tails=True))
        assert result.degrees_tried == [1, 2]
        assert result.tail.refit and result.tail.degree == 1
        assert (result.tail.c, result.tail.expected) == (5000.0, 1000.0000000000002)
        assert refits == []

    @pytest.mark.parametrize(
        "domain,fixpoint", [("octagon", analyze_cfg_octagon), ("interval", analyze_cfg)]
    )
    def test_lint_and_generator_share_one_fixpoint(self, monkeypatch, domain, fixpoint):
        # The lint pass hands its fixpoint of the request's domain to
        # the invariant generator instead of the generator running it
        # again.
        runs = _count_runs(monkeypatch, fixpoint)
        result = Analyzer().synthesize(
            "simple_loop", degree="auto", invariant_domain=domain, check="strict"
        )
        assert result.upper is not None
        assert len(runs) == 1

    def test_bare_benchmark_call_matches_options_path(self):
        bench = get_benchmark("ber")
        bare = bench.analyze()
        explicit = bench.analyze(
            AnalysisOptions(degree=bench.degree, mode=bench.mode, init=dict(bench.init))
        )
        assert bare.upper.value == explicit.upper.value
        assert bare.lower.value == explicit.lower.value


@pytest.mark.parametrize(
    "program,options",
    [row[1:] for row in RESOLUTION_MATRIX],
    ids=[row[0] for row in RESOLUTION_MATRIX],
)
class TestOneResolutionRule:
    """Every front end resolves a (program, options) pair by one rule,
    so they agree on the bounds, the lint findings and the invariants."""

    def test_synthesize_values_match_the_report(self, program, options):
        az = Analyzer()
        report = az.analyze(program, check="warn", **options)
        assert report.status == "ok", report.error
        result = az.synthesize(program, check="warn", **options)
        assert result.degrees_tried == report.degrees_tried
        assert (result.upper.value if result.upper else None) == report.upper_value
        assert (result.lower.value if result.lower else None) == report.lower_value
        assert result.lower_skipped == report.lower_skipped
        assert result.warnings == report.warnings
        assert [d.code for d in result.diagnostics] == [d["code"] for d in report.diagnostics]

    def test_lint_matches_check_request_and_warn_mode(self, program, options):
        az = Analyzer()
        staged = az.lint(program, **options).codes()
        engine = check_request(az.request(program, **options)).codes()
        report = az.analyze(program, check="warn", compute_lower=False, **options)
        assert staged == engine == sorted({d["code"] for d in report.diagnostics})

    def test_derive_invariants_matches_synthesis(self, program, options):
        az = Analyzer()
        derived = az.derive_invariants(program, **options)
        assert _rows(derived) == _rows(az.synthesize(program, **options).invariants)


class TestV1Shim:
    def test_v1_reader_round_trip(self):
        from repro.api import AnalysisReport, report_from_dict

        report = Analyzer().analyze("ber")
        newer = ("lower_skipped", "solver", "tail", "attempts", "diagnostics", "invariant_domain")
        v1 = {key: value for key, value in report.to_dict().items() if key not in newer}
        revived = report_from_dict({"schema": "repro-report/v1", **v1})
        assert isinstance(revived, AnalysisReport)
        assert revived.solver is None  # v1 dicts carry no backend id
        assert revived.upper_value == report.upper_value
        with pytest.raises(ValueError, match="unsupported report schema"):
            report_from_dict({"schema": "repro-report/v9", "name": "x", "status": "ok"})
