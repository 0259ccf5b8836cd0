"""``AnalysisReport.to_dict`` builds its dict field by field; it must stay
what ``dataclasses.asdict`` gives, key order included, and independent
of the report it came from."""

import dataclasses

import pytest

from repro.api import Analyzer
from repro.batch import AnalysisRequest
from repro.batch.engine import execute_request
from repro.batch.spec import AnalysisReport
from repro.programs import all_benchmarks, get_benchmark

#: The one registry target the benchmark skips: its degree-3 octagon LP
#: runs for minutes.
SLOW_TARGET = ("queuing_network", "octagon", {"i": 1.0, "l1": 0.0, "l2": 0.0, "n": 280.0})

#: Fields each down-level writer drops, newest schema first.
NEWER_FIELDS = {
    5: ("invariant_domain",),
    4: ("diagnostics", "invariant_domain"),
    3: ("attempts", "diagnostics", "invariant_domain"),
    2: ("tail", "attempts", "diagnostics", "invariant_domain"),
    1: ("lower_skipped", "solver", "tail", "attempts", "diagnostics", "invariant_domain"),
}


def _registry_requests():
    requests = []
    for bench in all_benchmarks():
        for init in bench.all_inits():
            for domain in ("interval", "octagon"):
                if (bench.name, domain, dict(init)) == SLOW_TARGET:
                    continue
                requests.append(
                    AnalysisRequest(
                        benchmark=bench.name,
                        init=dict(init),
                        degree="auto",
                        tails=True,
                        invariant_domain=domain,
                    )
                )
    return requests


def _special_reports():
    bench = get_benchmark("rdwalk")
    invariants = dict(bench.invariants)
    invariants[bench.cfg.entry] = "x >= 1000000000"
    rejected = execute_request(
        AnalysisRequest(
            source=bench.source,
            name="rdwalk-unsound",
            init=dict(bench.init),
            invariants=invariants,
            check="strict",
        )
    )
    assert rejected.status == "rejected" and rejected.diagnostics
    errored = execute_request(AnalysisRequest(benchmark="rdwlk"))
    assert errored.status == "error"
    tailed = execute_request(AnalysisRequest(benchmark="rdwalk", degree=1, tails=True))
    assert tailed.tail and tailed.tail["probes"]
    return [rejected, errored, tailed]


@pytest.fixture(scope="module")
def reports():
    with Analyzer(cache=None, jobs=1) as analyzer:
        registry = analyzer.analyze_batch(_registry_requests(), jobs=1)
    assert len(registry) == 119
    return registry + _special_reports()


def test_to_dict_equals_asdict_with_key_order(reports):
    for report in reports:
        payload, expected = report.to_dict(), dataclasses.asdict(report)
        assert payload == expected, report.name
        assert list(payload) == list(expected), report.name


def test_down_level_writers_drop_exactly_the_newer_fields(reports):
    for report in reports:
        for version, dropped in NEWER_FIELDS.items():
            expected = {
                key: value
                for key, value in dataclasses.asdict(report).items()
                if key not in dropped
            }
            payload = getattr(report, f"to_v{version}_dict")()
            assert payload == expected and list(payload) == list(expected), (report.name, version)


def test_to_dict_copies_containers(reports):
    rejected, _, tailed = reports[-3:]
    for report in (rejected, tailed):
        before = dataclasses.asdict(report)
        payload = report.to_dict()
        payload["init"]["x"] = -1.0
        payload["warnings"].append("mutated")
        payload["degrees_tried"].append(99)
        if payload["tail"] is not None:
            payload["tail"]["c"] = -1.0
            payload["tail"]["probes"][0]["bound"] = -1.0
        for diagnostic in payload["diagnostics"] or []:
            diagnostic["code"] = "MUTATED"
        assert dataclasses.asdict(report) == before


def test_to_dict_round_trips(reports):
    for report in reports[-3:]:
        assert AnalysisReport.from_dict(report.to_dict()) == report
