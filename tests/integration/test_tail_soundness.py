"""Monte-Carlo soundness of the Azuma–Hoeffding tail bounds.

For a Table 2 representative and a Table 5 coin-flip representative,
the derived concentration bound ``P[cost >= E + t, T <= n] <=
exp(-t^2/(2 c^2 n))`` must dominate the *empirical* tail frequency over
>= 10k interpreter runs truncated at the same horizon ``n``.  This
closes the loop between the certificate-level LP (the step-difference
bound ``c``) and the operational semantics, the way the bracket checks
in ``test_mc_soundness`` do for the expected-cost bounds.
"""

import pytest

from repro.api import AnalysisOptions, Analyzer
from repro.programs import get_benchmark, probabilistic_variant
from repro.semantics import simulate

RUNS = 10_000
SEED = 7
HORIZON = 2_000

#: Smaller-than-anchor initial valuations keep 10k runs CI-friendly
#: (run length scales with the valuation) while staying on the same
#: Table 2 / Table 5 programs.
CASES = [
    # (benchmark, nondet_prob, init override)
    ("rdwalk", None, {"x": 40, "n": 40}),
    ("random_walk", None, {"x": 15, "n": 40}),
    ("bitcoin_mining", 0.5, None),
]


def _tail_and_stats(name, prob, init):
    bench = get_benchmark(name)
    if prob is not None:
        bench = probabilistic_variant(bench, prob=prob)
    valuation = dict(init) if init is not None else dict(bench.init)
    result = Analyzer().synthesize(
        bench, AnalysisOptions(tails=True, tail_horizon=HORIZON, init=valuation)
    )
    assert result.tail is not None, result.warnings
    stats = simulate(bench.cfg, valuation, runs=RUNS, seed=SEED, max_steps=HORIZON)
    return result.tail, stats


@pytest.mark.parametrize("name, prob, init", CASES, ids=[c[0] for c in CASES])
def test_empirical_tail_frequencies_respect_bound(name, prob, init):
    tail, stats = _tail_and_stats(name, prob, init)
    assert tail.c > 0.0
    assert stats.runs == RUNS
    # The guarantee covers runs that terminate within the horizon;
    # truncated runs fall outside the event and count as non-exceeding.
    for probe in tail.probes:
        freq = stats.tail_frequency(tail.expected + probe.t)
        assert freq <= probe.bound, (
            f"{name}: empirical P[cost >= {tail.expected:g} + {probe.t:g}] = {freq} "
            f"exceeds the Azuma bound {probe.bound}"
        )
    # And at a fine grid of offsets, not just the default probes.
    scale = tail.c * (HORIZON ** 0.5)
    for alpha in (0.25, 0.75, 1.5, 2.5, 4.0):
        t = alpha * scale
        assert stats.tail_frequency(tail.expected + t) <= tail.bound_at(t)


def test_tail_bound_survives_report_round_trip():
    """The engine-report serialization of the bound is lossless and the
    reconstructed object evaluates identically."""
    from repro.analysis import TailBound
    from repro.batch import AnalysisRequest
    from repro.batch.engine import execute_request

    report = execute_request(
        AnalysisRequest(benchmark="rdwalk", tails=True, tail_horizon=HORIZON)
    )
    assert report.ok and report.tail is not None
    tail = TailBound.from_dict(report.tail)
    assert tail.bound_at(3 * tail.c * (HORIZON ** 0.5)) == pytest.approx(
        2.718281828459045 ** (-4.5)
    )


def test_warm_cache_reports_tail_byte_identically(tmp_path):
    """Tail-carrying reports round-trip through the content-addressed
    cache bitwise, and tail settings are part of the fingerprint."""
    import json

    from repro.batch import AnalysisRequest
    from repro.batch.engine import run_batch
    from repro.cache import ResultCache, request_key

    request = AnalysisRequest(benchmark="rdwalk", tails=True, tail_horizon=HORIZON)
    cache = ResultCache(tmp_path / "store")
    (cold,) = run_batch([request], cache=cache)
    (warm,) = run_batch([request], cache=cache)
    assert cache.hits == 1 and cache.misses == 1
    assert json.dumps(cold.to_dict()) == json.dumps(warm.to_dict())
    assert warm.tail == cold.tail and warm.tail is not None
    bare = AnalysisRequest(benchmark="rdwalk")
    assert request_key(bare) != request_key(request)
    assert request_key(AnalysisRequest(benchmark="rdwalk", tails=True)) != request_key(request)


def test_engine_reports_each_probes_empirical_frequency():
    """A request that derives tails and simulates at the horizon carries,
    next to each probe, the frequency ``SimulationStats.tail_frequency``
    defines; simulated past the horizon it carries none, since the
    frequency would then estimate another event."""
    from dataclasses import replace

    from repro.batch import AnalysisRequest
    from repro.batch.engine import execute_request

    init = {"x": 40, "n": 40}
    request = AnalysisRequest(
        benchmark="rdwalk",
        init=init,
        tails=True,
        tail_horizon=HORIZON,
        simulate_runs=500,
        simulate_seed=SEED,
        simulate_max_steps=HORIZON,
    )
    report = execute_request(request)
    assert report.ok and report.tail is not None
    stats = simulate(get_benchmark("rdwalk").cfg, init, runs=500, seed=SEED, max_steps=HORIZON)
    tail = report.tail
    assert [p["freq"] for p in tail["probes"]] == [
        stats.tail_frequency(tail["expected"] + p["t"]) for p in tail["probes"]
    ]
    beyond = execute_request(replace(request, simulate_max_steps=HORIZON + 1))
    assert beyond.tail is not None
    assert all("freq" not in p for p in beyond.tail["probes"])


def test_only_requests_that_simulate_and_derive_tails_are_rekeyed():
    """Reports of such requests gained ``freq``; their keys carry a
    marker, so entries stored without it are never served.  No other
    request's fingerprint changes."""
    from repro.batch import AnalysisRequest
    from repro.cache import request_fingerprint

    both = AnalysisRequest(benchmark="rdwalk", tails=True, simulate_runs=10)
    assert request_fingerprint(both)["simulate"]["tail_freq"] is True
    simulate_only = request_fingerprint(AnalysisRequest(benchmark="rdwalk", simulate_runs=10))
    assert "tail_freq" not in simulate_only["simulate"]
    assert request_fingerprint(AnalysisRequest(benchmark="rdwalk", tails=True))["simulate"] is None
