"""HTTP analysis-service tests (`repro.service` / `repro serve`)."""

import errno
import json
import os
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.batch import AnalysisRequest, requests_from_spec, run_batch
from repro.cache import ResultCache
from repro.service import create_server


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("service-cache"))
    server = create_server(host="127.0.0.1", port=0, jobs=1, cache=cache)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, cache, f"http://127.0.0.1:{server.port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_healthz(self, service):
        _, _, base = service
        status, payload = _get(base, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["schema"] == "repro-service/v2"
        assert payload["cache"] is not None

    def test_benchmarks_lists_registry(self, service):
        _, _, base = service
        status, payload = _get(base, "/benchmarks")
        assert status == 200
        names = [bench["name"] for bench in payload["benchmarks"]]
        assert payload["count"] == len(names) == 30
        assert "rdwalk" in names and "bitcoin_mining" in names
        nondet = {b["name"]: b["nondeterministic"] for b in payload["benchmarks"]}
        assert nondet["bitcoin_mining"] is True and nondet["rdwalk"] is False

    def test_cache_stats_endpoint(self, service):
        _, _, base = service
        status, payload = _get(base, "/cache/stats")
        assert status == 200
        assert payload["enabled"] is True
        assert "hits" in payload and "entries" in payload

    def test_unknown_path_404(self, service):
        _, _, base = service
        try:
            urllib.request.urlopen(base + "/nope", timeout=30)
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as error:
            assert error.code == 404


class TestIntrospectionEndpoints:
    def test_options_defaults_matches_analysis_options(self, service):
        from repro.api import AnalysisOptions

        _, _, base = service
        status, payload = _get(base, "/options/defaults")
        assert status == 200
        assert payload["schema"] == "repro-service/v2"
        assert payload["defaults"] == AnalysisOptions().to_dict()
        # The relational-invariants knob is advertised, defaulting off.
        assert payload["defaults"]["invariant_domain"] == "interval"

    def test_options_defaults_round_trip(self, service):
        from repro.api import AnalysisOptions

        _, _, base = service
        _, payload = _get(base, "/options/defaults")
        assert AnalysisOptions.from_dict(payload["defaults"]) == AnalysisOptions()

    def test_version_endpoint(self, service):
        import repro
        from repro.api import REPORT_SCHEMA

        _, _, base = service
        status, payload = _get(base, "/version")
        assert status == 200
        assert payload["repro"] == repro.__version__
        assert payload["schemas"]["report"] == REPORT_SCHEMA
        assert payload["schemas"]["report"] == "repro-report/v6"
        assert "repro-report/v5" in payload["schemas"]["report_compat"]
        assert payload["schemas"]["service"] == "repro-service/v2"
        assert "solver_backends" not in payload


class TestAnalyze:
    def test_single_request_matches_engine_byte_for_byte(self, service):
        _, cache, base = service
        # Engine first (populates the shared store), then the service:
        # the POST must return the stored report verbatim.
        engine_report = run_batch([AnalysisRequest(benchmark="rdwalk")], cache=cache)[0]
        status, payload = _post(base, "/analyze", {"benchmark": "rdwalk"})
        assert status == 200
        # Not sort_keys: byte-identical includes dict key order.
        assert json.dumps(payload) == json.dumps(engine_report.to_dict())

    def test_repeat_post_is_a_cache_hit(self, service):
        _, cache, base = service
        _post(base, "/analyze", {"benchmark": "ber"})
        hits_before = cache.stats().hits
        status, payload = _post(base, "/analyze", {"benchmark": "ber"})
        assert status == 200 and payload["status"] == "ok"
        assert cache.stats().hits == hits_before + 1

    def test_single_post_fingerprints_once(self, service, monkeypatch):
        # The coalescing key the handler derives is the one the engine
        # looks up and stores under: one SHA-256 per POST, miss or hit.
        import repro.cache

        _, cache, base = service
        real = repro.cache.request_key
        calls = []

        def counting(request, resolved=None):
            calls.append(request)
            return real(request, resolved)

        monkeypatch.setattr(repro.cache, "request_key", counting)
        body = {
            "source": "var x;\nwhile x >= 1 do\n x := x - 1;\n tick(1)\nod",
            "invariants": {"1": "x >= 0", "2": "x >= 1"},
            "init": {"x": 13},
            "degree": 1,
        }
        for expected_hits in (0, 1):
            hits = cache.stats().hits
            calls.clear()
            status, payload = _post(base, "/analyze", body)
            assert status == 200 and payload["status"] == "ok"
            assert cache.stats().hits == hits + expected_hits
            assert len(calls) == 1

    def test_coalesced_post_resolves_once(self, service, monkeypatch):
        # The handler resolves the request once; the coalescing key, the
        # run (miss) and the hit's name restore all read that triple.
        import repro.programs
        from repro.programs import resolve

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return resolve(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and getattr(module, "resolve", None) is resolve:
                monkeypatch.setattr(module, "resolve", counting)
        assert repro.programs.resolve is counting
        _, cache, base = service
        body = {"source": "var x;\nwhile x >= 1 do\n x := x - 1;\n tick(5)\nod", "init": {"x": 4}}
        for expected_hits in (0, 1):
            hits = cache.stats().hits
            calls.clear()
            status, payload = _post(base, "/analyze", body)
            assert status == 200 and payload["status"] == "ok"
            assert cache.stats().hits == hits + expected_hits
            assert len(calls) == 1

    def test_inline_source_request(self, service):
        _, _, base = service
        status, payload = _post(
            base,
            "/analyze",
            {
                "source": "var x;\nwhile x >= 1 do\n x := x - 1;\n tick(1)\nod",
                "name": "countdown",
                "invariants": {"1": "x >= 0", "2": "x >= 1"},
                "init": {"x": 9},
                "degree": 1,
            },
        )
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["upper_value"] == pytest.approx(9.0, rel=1e-6)

    def test_octagon_domain_request_drops_annotations(self, service):
        # Registry annotations deleted (`"invariants": {}`), the octagon
        # generator alone must recover a certificate.
        _, _, base = service
        status, payload = _post(
            base,
            "/analyze",
            {
                "benchmark": "ber",
                "invariants": {},
                "invariant_domain": "octagon",
                "compute_lower": False,
            },
        )
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["invariant_domain"] == "octagon"
        assert payload["upper_value"] is not None

    def test_task_list_body(self, service):
        _, _, base = service
        status, payload = _post(
            base, "/analyze", [{"benchmark": "rdwalk"}, {"benchmark": "ber"}]
        )
        assert status == 200
        assert payload["schema"] == "repro-service/v2"
        assert payload["tasks"] == 2 and payload["failed"] == 0
        assert [r["name"] for r in payload["reports"]] == ["rdwalk", "ber"]

    def test_spec_body_with_suite(self, service):
        _, _, base = service
        status, payload = _post(
            base, "/analyze", {"defaults": {"degree": 1}, "tasks": [{"suite": "table2"}]}
        )
        assert status == 200
        assert payload["tasks"] == 15

    def test_analysis_failure_is_a_structured_report_not_http_error(self, service):
        _, _, base = service
        status, payload = _post(base, "/analyze", {"benchmark": "rdwlk"})
        assert status == 200
        assert payload["status"] == "error"
        assert "did you mean" in payload["error"]


#: Settings both entry points once accepted and then ignored, misread
#: (``"55"`` iterated as probes 5 and 5, ``true`` read as 1) or crashed
#: on with a Python comparison error; each must be rejected up front by
#: the one settings validator, naming the field.
ILL_FORMED_SETTINGS = {
    "max_multiplicands-zero": ({"max_multiplicands": 0}, "max_multiplicands"),
    "simulate_max_steps-zero": (
        {"simulate_runs": 3, "simulate_max_steps": 0},
        "simulate_max_steps",
    ),
    "max_degree-string": ({"max_degree": "3"}, "max_degree"),
    "tail_probes-string": ({"tail_probes": "55"}, "tail_probes"),
    "max_degree-bool": ({"max_degree": True}, "max_degree"),
}


class TestBadEnvelopes:
    @pytest.mark.parametrize("entry", ["post-analyze", "requests_from_spec"])
    @pytest.mark.parametrize("case", list(ILL_FORMED_SETTINGS))
    def test_ill_formed_settings_rejected_naming_the_field(self, service, entry, case):
        settings, field = ILL_FORMED_SETTINGS[case]
        task = {"benchmark": "rdwalk", **settings}
        if entry == "post-analyze":
            _, _, base = service
            status, payload = _post(base, "/analyze", task)
            assert status == 400
            message = payload["error"]
        else:
            with pytest.raises(ValueError) as info:
                requests_from_spec([task])
            message = str(info.value)
        assert f"{field} must be" in message

    def test_invalid_json_400(self, service):
        _, _, base = service
        request = urllib.request.Request(
            base + "/analyze", data=b"{not json", method="POST"
        )
        try:
            urllib.request.urlopen(request, timeout=30)
            raise AssertionError("expected 400")
        except urllib.error.HTTPError as error:
            assert error.code == 400
            assert "invalid JSON" in json.loads(error.read())["error"]

    def test_unknown_field_400(self, service):
        _, _, base = service
        bodies = [({"bogus": 1}, "bogus"), ({"benchmark": "rdwalk", "solver": "highs"}, "solver")]
        for body, field in bodies:
            status, payload = _post(base, "/analyze", body)
            assert status == 400
            assert "unknown request field" in payload["error"]
            assert repr(field) in payload["error"]

    def test_empty_body_400(self, service):
        _, _, base = service
        request = urllib.request.Request(base + "/analyze", data=b"", method="POST")
        try:
            urllib.request.urlopen(request, timeout=30)
            raise AssertionError("expected 400")
        except urllib.error.HTTPError as error:
            assert error.code == 400

    def test_post_wrong_path_404(self, service):
        # POST on a GET route (/benchmarks) is a 405: see test_keepalive.py.
        _, _, base = service
        status, payload = _post(base, "/nope", {"benchmark": "rdwalk"})
        assert status == 404


@pytest.fixture
def held_port():
    """A port another socket is listening on."""
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        yield holder.getsockname()[1]


class TestPortInUse:
    def test_create_server_raises_address_in_use(self, held_port):
        with pytest.raises(OSError) as info:
            create_server(host="127.0.0.1", port=held_port)
        assert info.value.errno == errno.EADDRINUSE

    def test_cli_exits_nonzero_naming_the_cause(self, held_port, tmp_path):
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["serve", "--port", str(held_port), "--cache-dir", str(tmp_path)]
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert completed.returncode != 0
        assert "Address already in use" in completed.stderr
        assert "Traceback" not in completed.stderr
