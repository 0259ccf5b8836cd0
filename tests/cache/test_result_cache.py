"""Unit tests for the content-addressed result cache (`repro.cache`)."""

import json
import os
import subprocess
import sys

import pytest

from repro.batch import AnalysisReport, AnalysisRequest, execute_request
from repro.cache import (
    ENTRY_SCHEMA,
    ResultCache,
    cache_salt,
    default_cache_dir,
    request_fingerprint,
    request_key,
)

RDWALK = AnalysisRequest(benchmark="rdwalk")

COUNTDOWN = "var x;\nwhile x >= 1 do\n    x := x - 1;\n    tick(1)\nod"
COUNTDOWN_UGLY = "var x;  # counts down\nwhile x >= 1 do x := x - 1; tick(1) od"


def _source_request(source=COUNTDOWN, **kwargs):
    kwargs.setdefault("init", {"x": 5.0})
    kwargs.setdefault("invariants", {1: "x >= 0", 2: "x >= 1"})
    kwargs.setdefault("degree", 1)
    return AnalysisRequest(source=source, **kwargs)


class TestRequestKey:
    def test_deterministic(self):
        assert request_key(RDWALK) == request_key(AnalysisRequest(benchmark="rdwalk"))

    def test_presentation_fields_excluded(self):
        named = AnalysisRequest(benchmark="rdwalk", name="alias", tag="sweep-1", timeout_s=5.0)
        assert request_key(named) == request_key(RDWALK)

    def test_formatting_and_comments_do_not_split_the_key(self):
        # The key hashes the parsed AST, not the source text — the
        # parser/pretty round-trip tests guard this canonicalization.
        assert request_key(_source_request(COUNTDOWN)) == request_key(
            _source_request(COUNTDOWN_UGLY)
        )

    @pytest.mark.parametrize(
        "override",
        [
            {"init": {"x": 50.0}},
            {"degree": 2},
            {"degree": "auto"},
            {"mode": "nonnegative"},
            {"compute_lower": False},
            {"max_multiplicands": 2},
            {"simulate_runs": 100},
        ],
    )
    def test_semantic_fields_split_the_key(self, override):
        assert request_key(AnalysisRequest(benchmark="rdwalk", **override)) != request_key(RDWALK)

    def test_simulation_engine_splits_the_key(self):
        # Same seed, different engine => different RNG stream => the
        # cached sim statistics must never alias.
        base = AnalysisRequest(benchmark="rdwalk", simulate_runs=100)
        keys = {
            request_key(
                AnalysisRequest(benchmark="rdwalk", simulate_runs=100, simulate_engine=e)
            )
            for e in ("auto", "vectorized", "reference")
        }
        assert len(keys) == 3
        assert request_key(base) in keys  # default engine is "auto"

    def test_auto_ceiling_splits_the_key(self):
        a = AnalysisRequest(benchmark="pol04", degree="auto", max_degree=2)
        b = AnalysisRequest(benchmark="pol04", degree="auto", max_degree=4)
        assert request_key(a) != request_key(b)

    def test_nondet_prob_splits_the_key(self):
        base = AnalysisRequest(benchmark="bitcoin_mining")
        coin = AnalysisRequest(benchmark="bitcoin_mining", nondet_prob=0.5)
        other = AnalysisRequest(benchmark="bitcoin_mining", nondet_prob=0.25)
        assert len({request_key(base), request_key(coin), request_key(other)}) == 3

    def test_distinct_probabilities_not_collapsed_by_display_rounding(self):
        # %g formatting shows both as 0.333333; the key must not.
        src = "var x;\nif prob({p}) then tick(1) fi"
        ka = request_key(AnalysisRequest(source=src.format(p="0.3333333"), init={}, degree=1))
        kb = request_key(AnalysisRequest(source=src.format(p="0.3333334"), init={}, degree=1))
        assert ka != kb

    def test_salt_in_fingerprint(self):
        assert request_fingerprint(RDWALK)["salt"] == cache_salt()
        assert ENTRY_SCHEMA in cache_salt()

    def test_salt_matches_scipy_version_without_importing_it(self):
        import scipy

        import repro

        assert cache_salt() == f"{ENTRY_SCHEMA}|repro={repro.__version__}|scipy-{scipy.__version__}"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import json, sys\n"
            "from repro.batch import AnalysisRequest\n"
            "from repro.cache import cache_salt, request_key\n"
            "key = request_key(AnalysisRequest(benchmark='rdwalk'))\n"
            "heavy = sorted({'numpy', 'scipy'} & set(sys.modules))\n"
            "print(json.dumps([key, cache_salt(), heavy]))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert completed.returncode == 0, completed.stderr
        key, salt, heavy = json.loads(completed.stdout)
        assert (key, salt, heavy) == (request_key(RDWALK), cache_salt(), [])

    def test_unresolvable_request_raises_but_request_key_helper_swallows(self):
        bad = AnalysisRequest(benchmark="no_such_benchmark")
        with pytest.raises(KeyError):
            request_key(bad)
        assert ResultCache("/nonexistent-root-never-used").request_key(bad) is None


class TestStore:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = execute_request(_source_request())
        assert report.ok
        assert cache.put(_source_request(), report)
        got = cache.get(_source_request())
        assert got is not None
        assert got.to_dict() == report.to_dict()

    def test_disk_round_trip_survives_new_instance(self, tmp_path):
        first = ResultCache(tmp_path)
        report = execute_request(_source_request())
        first.put(_source_request(), report)
        second = ResultCache(tmp_path)  # cold memory, warm disk
        got = second.get(_source_request())
        assert got is not None and got.to_dict() == report.to_dict()
        assert second.stats().hits == 1

    def test_memory_lru_bounded_but_disk_retains(self, tmp_path):
        cache = ResultCache(tmp_path, max_memory_entries=1)
        a, b = _source_request(), AnalysisRequest(benchmark="rdwalk")
        cache.put(a, execute_request(a))
        cache.put(b, execute_request(b))
        assert cache.stats().memory_entries == 1
        assert cache.get(a) is not None  # evicted from memory, hit on disk
        assert cache.stats().entries == 2

    def test_non_ok_reports_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = AnalysisRequest(source="var x;\nwhile x >= 1 do\n x := y\nod", init={}, degree=1)
        report = execute_request(bad)
        assert report.status == "error"
        assert not cache.put(bad, report)
        assert cache.stats().entries == 0

    def test_hit_reechoes_request_name_and_tag(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_source_request(), execute_request(_source_request()))
        got = cache.get(_source_request(name="renamed", tag="warm"))
        assert got.name == "renamed"
        assert got.tag == "warm"

    def test_corrupt_entry_is_a_miss_and_self_cleans(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_source_request(), execute_request(_source_request()))
        entry = next(tmp_path.glob("*.json"))
        entry.write_text("{not json")
        fresh = ResultCache(tmp_path)
        assert fresh.get(_source_request()) is None
        assert not entry.exists()

    def test_stale_salt_is_a_miss_and_self_cleans(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_source_request(), execute_request(_source_request()))
        entry = next(tmp_path.glob("*.json"))
        payload = json.loads(entry.read_text())
        payload["salt"] = "repro-cache/v0|ancient"
        entry.write_text(json.dumps(payload))
        fresh = ResultCache(tmp_path)
        assert fresh.get(_source_request()) is None
        assert not entry.exists()

    def test_store_on_unwritable_root_degrades_to_cold(self, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("occupied")
        cache = ResultCache(blocked)
        report = execute_request(_source_request())
        assert cache.put(_source_request(), report) is False
        assert cache.get(_source_request()) is None

    def test_mutating_a_hit_does_not_poison_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_source_request(), execute_request(_source_request()))
        first = cache.get(_source_request())
        first.warnings.append("mutated by caller")
        second = cache.get(_source_request())
        assert "mutated by caller" not in second.warnings


class TestStatsAndClear:
    def test_counters_and_census(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(_source_request()) is None  # miss
        cache.put(_source_request(), execute_request(_source_request()))
        assert cache.get(_source_request()) is not None  # hit
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.entries == 1 and stats.size_bytes > 0
        assert stats.root == str(tmp_path)
        assert set(stats.to_dict()) == {
            "root", "hits", "misses", "stores", "entries", "size_bytes", "memory_entries",
        }

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_source_request(), execute_request(_source_request()))
        cache.put(RDWALK, execute_request(AnalysisRequest(benchmark="rdwalk")))
        assert cache.clear() == 2
        assert cache.stats().entries == 0
        assert cache.stats().memory_entries == 0
        assert cache.get(RDWALK) is None

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == str(tmp_path / "custom")
        assert str(ResultCache().root) == str(tmp_path / "custom")


class TestReportRoundTrip:
    def test_report_json_round_trip_is_lossless(self, tmp_path):
        report = execute_request(
            AnalysisRequest(benchmark="rdwalk", simulate_runs=50, simulate_seed=3, tag="rt")
        )
        clone = AnalysisReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone.to_dict() == report.to_dict()
