"""Engine x cache integration: warm re-runs must short-circuit.

The acceptance bar for the cache layer: re-running the *full*
``examples/batch_spec.json`` batch against a warm store returns
byte-identical reports while performing **zero** synthesis LP solves
(``execute_request`` is never reached — every task is a cache hit).
"""

import json
from pathlib import Path

import pytest

import repro.batch.engine as engine
from repro.batch import AnalysisRequest, load_spec, run_batch
from repro.cache import ResultCache

SPEC_PATH = Path(__file__).resolve().parent.parent.parent / "examples" / "batch_spec.json"


def _dumps(report):
    # Deliberately NOT sort_keys: byte-identical means identical dict
    # key order too (the CLI's --output JSON is written unsorted).
    return json.dumps(report.to_dict())


class TestWarmRerunAcceptance:
    @pytest.fixture(scope="class")
    def warm_store(self, tmp_path_factory):
        cache = ResultCache(tmp_path_factory.mktemp("store"))
        requests = load_spec(str(SPEC_PATH))
        cold = run_batch(requests, cache=cache)
        return cache, requests, cold

    def test_cold_run_populates(self, warm_store):
        cache, requests, cold = warm_store
        assert all(report.ok for report in cold)
        stats = cache.stats()
        assert stats.hits == 0
        assert stats.stores == len(requests)
        assert stats.entries == len(requests)

    def test_warm_rerun_byte_identical_with_zero_solves(self, warm_store, monkeypatch):
        cache, _, cold = warm_store

        def _boom(request):
            raise AssertionError(f"synthesis executed on a warm cache: {request.display_name}")

        monkeypatch.setattr(engine, "execute_request", _boom)
        hits_before = cache.stats().hits
        warm = run_batch(load_spec(str(SPEC_PATH)), cache=cache)
        assert cache.stats().hits - hits_before == len(warm)
        assert [_dumps(r) for r in warm] == [_dumps(r) for r in cold]

    def test_warm_parallel_rerun_hits_shared_store(self, warm_store):
        cache, _, cold = warm_store
        # A fresh parent instance over the same root, fanning out over a
        # pool: workers consult the shared disk store.
        parent = ResultCache(cache.root)
        warm = run_batch(load_spec(str(SPEC_PATH)), jobs=2, cache=parent)
        assert parent.stats().hits == len(warm)
        assert [_dumps(r) for r in warm] == [_dumps(r) for r in cold]


class TestEngineCacheSemantics:
    def test_parallel_cold_run_populates_for_sequential_warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        requests = [AnalysisRequest(benchmark=name) for name in ("rdwalk", "ber", "linear01")]
        cold = run_batch(requests, jobs=2, cache=cache)
        # Worker-side stores fold into the parent counters too.
        assert cache.stats().misses == 3
        assert cache.stats().stores == 3
        warm = run_batch(
            [AnalysisRequest(benchmark=name) for name in ("rdwalk", "ber", "linear01")],
            cache=cache,
        )
        assert cache.stats().hits == 3
        assert [_dumps(r) for r in warm] == [_dumps(r) for r in cold]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_precomputed_keys_are_used_as_given(self, tmp_path, jobs):
        # The caller's key is the one looked up and stored under.
        cache = ResultCache(tmp_path)
        requests = [AnalysisRequest(benchmark="rdwalk"), AnalysisRequest(benchmark="ber")]
        keys = ["0" * 64, None]
        run_batch(requests, jobs=jobs, cache=cache, keys=keys)
        assert (tmp_path / f"{keys[0]}.json").exists()
        assert (tmp_path / f"{cache.request_key(requests[1])}.json").exists()
        assert not (tmp_path / f"{cache.request_key(requests[0])}.json").exists()

    def test_keys_must_match_requests(self, tmp_path):
        with pytest.raises(ValueError, match="1 keys for 2 requests"):
            run_batch(
                [AnalysisRequest(benchmark="rdwalk"), AnalysisRequest(benchmark="ber")],
                cache=ResultCache(tmp_path),
                keys=[None],
            )

    def test_error_reports_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = AnalysisRequest(source="var x; while x >= 1 do", init={})
        first = run_batch([bad], cache=cache)[0]
        second = run_batch([AnalysisRequest(source="var x; while x >= 1 do", init={})], cache=cache)[0]
        assert first.status == "error" and second.status == "error"
        assert cache.stats().hits == 0
        assert cache.stats().entries == 0

    def test_unknown_benchmark_bypasses_cache_and_reports_error(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = run_batch([AnalysisRequest(benchmark="rdwlk")], cache=cache)[0]
        assert report.status == "error"
        assert "did you mean" in report.error
        assert cache.stats().entries == 0

    def test_no_cache_is_the_default(self, monkeypatch):
        # run_batch without `cache` must never touch a store.
        called = []

        def _no_store(*args, **kwargs):  # pragma: no cover - guard only
            called.append(args)

        monkeypatch.setattr(engine, "_worker_cache", _no_store)
        reports = run_batch([AnalysisRequest(benchmark="rdwalk")])
        assert reports[0].ok
        assert not called

    def test_custom_name_does_not_poison_later_unnamed_hits(self, tmp_path):
        # name/tag are excluded from the key; a hit must re-derive them
        # for the incoming request, not inherit the storing request's.
        cache = ResultCache(tmp_path)
        named = run_batch(
            [AnalysisRequest(benchmark="rdwalk", name="custom-label", tag="first")],
            cache=cache,
        )[0]
        assert named.name == "custom-label"
        plain = run_batch([AnalysisRequest(benchmark="rdwalk")], cache=cache)[0]
        assert cache.stats().hits == 1
        assert plain.name == "rdwalk"
        assert plain.tag is None

    def test_variant_name_restored_on_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch(
            [AnalysisRequest(benchmark="bitcoin_mining", nondet_prob=0.5, name="aliased")],
            cache=cache,
        )
        hit = run_batch(
            [AnalysisRequest(benchmark="bitcoin_mining", nondet_prob=0.5)], cache=cache
        )[0]
        assert cache.stats().hits == 1
        assert hit.name == "bitcoin_mining_prob"

    def test_uncacheable_tasks_count_nowhere_for_any_jobs(self, tmp_path):
        # Accounting must not depend on --jobs: bypassed (key-less)
        # tasks touch neither the hit nor the miss counter.
        spec = [
            AnalysisRequest(benchmark="rdwlk_typo"),
            AnalysisRequest(benchmark="rdwalk"),
        ]
        sequential = ResultCache(tmp_path / "seq")
        run_batch([AnalysisRequest(**{**r.to_dict()}) for r in spec], cache=sequential)
        pooled = ResultCache(tmp_path / "pool")
        run_batch([AnalysisRequest(**{**r.to_dict()}) for r in spec], jobs=2, cache=pooled)
        seq_stats, pool_stats = sequential.stats(), pooled.stats()
        assert (seq_stats.hits, seq_stats.misses) == (0, 1)
        assert (pool_stats.hits, pool_stats.misses) == (0, 1)

    def test_cached_hit_skips_timeout_budget(self, tmp_path):
        # A warm entry is returned instantly, so a tiny budget that
        # would time out cold cannot fire on the hit path.
        cache = ResultCache(tmp_path)
        warmup = AnalysisRequest(benchmark="bitcoin_pool")
        assert run_batch([warmup], cache=cache)[0].ok
        report = run_batch(
            [AnalysisRequest(benchmark="bitcoin_pool", timeout_s=0.0001)], cache=cache
        )[0]
        assert report.ok
        assert cache.stats().hits == 1
