"""AnalysisRequest/AnalysisReport model and spec-file expansion tests."""

import json

import pytest

from repro.batch import AnalysisReport, AnalysisRequest, load_spec, requests_from_spec
from repro.programs import benchmarks_by_category, get_benchmark, probabilistic_variant


class TestRequestModel:
    def test_round_trip(self):
        request = AnalysisRequest(
            benchmark="rdwalk",
            init={"n": 50.0},
            degree="auto",
            max_degree=3,
            simulate_runs=100,
            timeout_s=30.0,
            tag="t1",
        )
        clone = AnalysisRequest.from_dict(request.to_dict())
        assert clone == request

    def test_round_trip_through_json(self):
        request = AnalysisRequest(
            source="var x; tick(1)", name="tiny", invariants={1: "x >= 0"}, init={"x": 1.0}
        )
        clone = AnalysisRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert clone == request
        assert list(clone.invariants) == [1]  # keys back to ints

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown request field"):
            AnalysisRequest.from_dict({"benchmark": "rdwalk", "wat": 1})
        with pytest.raises(ValueError, match="unknown request field.*'solver'"):
            requests_from_spec([{"benchmark": "rdwalk", "solver": "highs"}])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},  # neither benchmark nor source
            {"benchmark": "a", "source": "var x; tick(1)"},  # both
            {"benchmark": "a", "degree": 0},
            {"benchmark": "a", "degree": "wat"},
            {"benchmark": "a", "mode": "sideways"},
            {"benchmark": "a", "nondet_prob": 1.5},
            {"benchmark": "a", "simulate_runs": 0},
            {"benchmark": "a", "timeout_s": -1.0},
        ],
    )
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ValueError):
            AnalysisRequest(**kwargs)

    def test_report_round_trip(self):
        report = AnalysisReport(
            name="x", status="ok", degree=2, degrees_tried=[1, 2], upper_value=3.0
        )
        assert AnalysisReport.from_dict(report.to_dict()) == report
        assert report.ok

    def test_for_benchmark_registry_reference(self):
        bench = get_benchmark("rdwalk")
        request = AnalysisRequest.for_benchmark(bench, init={"n": 10.0})
        assert request.benchmark == "rdwalk"
        assert request.source is None

    def test_for_benchmark_adhoc_embeds_source(self):
        variant = probabilistic_variant(get_benchmark("bitcoin_mining"))
        request = AnalysisRequest.for_benchmark(variant)
        assert request.benchmark is None
        assert request.name == "bitcoin_mining_prob"
        assert "prob(0.0005)" in request.source
        assert request.degree == variant.degree
        assert request.invariants  # carried over as plain strings

    def test_for_benchmark_resolves_init_invariants(self):
        bench = get_benchmark("goods_discount")
        assert bench.init_invariants is not None
        import dataclasses

        adhoc = dataclasses.replace(bench, name="goods_copy")
        request = AnalysisRequest.for_benchmark(adhoc, init=dict(bench.init))
        # The init-dependent relation is baked into the string invariants.
        assert any("n + d >=" in cond for cond in request.invariants.values())
        json.dumps(request.to_dict())  # still serializable


class TestSpecExpansion:
    def test_plain_list(self):
        requests = requests_from_spec([{"benchmark": "rdwalk"}, {"benchmark": "ber"}])
        assert [r.benchmark for r in requests] == ["rdwalk", "ber"]

    def test_defaults_merge_and_override(self):
        spec = {
            "defaults": {"degree": "auto", "timeout_s": 5.0},
            "tasks": [{"benchmark": "rdwalk"}, {"benchmark": "ber", "degree": 1}],
        }
        first, second = requests_from_spec(spec)
        assert first.degree == "auto" and first.timeout_s == 5.0
        assert second.degree == 1 and second.timeout_s == 5.0

    def test_suite_expansion_counts(self):
        requests = requests_from_spec({"tasks": [{"suite": "table2"}]})
        assert len(requests) == len(benchmarks_by_category("table2")) == 15
        assert all(r.benchmark is not None for r in requests)

    def test_table5_suite_sets_nondet_prob(self):
        requests = requests_from_spec({"tasks": [{"suite": "table5"}]})
        by_name = {r.benchmark: r for r in requests}
        assert by_name["bitcoin_mining"].nondet_prob == 0.5
        assert by_name["simple_loop"].nondet_prob is None

    def test_all_inits_expansion(self):
        bench = get_benchmark("bitcoin_mining")
        requests = requests_from_spec(
            {"tasks": [{"suite": "table3", "all_inits": True}]}
        )
        mining = [r for r in requests if r.benchmark == "bitcoin_mining"]
        assert len(mining) == len(bench.all_inits()) == 3
        assert all(r.init is not None for r in mining)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="tasks"):
            requests_from_spec({"defaults": {}})
        with pytest.raises(ValueError, match="unknown suite"):
            requests_from_spec({"tasks": [{"suite": "table9"}]})
        with pytest.raises(ValueError):
            requests_from_spec("not a spec")

    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"tasks": [{"benchmark": "rdwalk", "degree": 1}]}))
        (request,) = load_spec(str(path))
        assert request.benchmark == "rdwalk"
        assert request.degree == 1


class TestSpecConflicts:
    def test_suite_in_defaults_rejected(self):
        with pytest.raises(ValueError, match="not allowed in defaults"):
            requests_from_spec({"defaults": {"suite": "table2"}, "tasks": [{"benchmark": "rdwalk"}]})

    def test_suite_with_explicit_benchmark_rejected(self):
        with pytest.raises(ValueError, match="conflicts"):
            requests_from_spec({"tasks": [{"suite": "table2", "benchmark": "rdwalk"}]})
