"""Batch engine tests: execution, escalation, isolation, parallel
equivalence with the sequential drivers."""

import math

import pytest

from repro.api import AnalysisOptions
from repro.batch import AnalysisRequest, execute_request, requests_from_spec, run_batch
from repro.programs import get_benchmark


def _bound_fingerprint(report):
    """Everything that must be invariant across jobs counts (drop the
    timing fields, which legitimately vary run to run)."""
    return (
        report.name,
        report.status,
        report.mode,
        report.degree,
        tuple(report.degrees_tried),
        report.upper_value,
        report.upper_bound,
        report.lower_value,
        report.lower_bound,
        report.policy_enumerated,
        report.sim_mean,
        report.sim_std,
        report.sim_truncated,
        tuple(report.warnings),
        report.error,
    )


class TestExecuteRequest:
    def test_matches_direct_analysis(self):
        bench = get_benchmark("rdwalk")
        report = execute_request(AnalysisRequest(benchmark="rdwalk"))
        direct = bench.analyze()
        assert report.ok
        assert report.upper_value == direct.upper.value
        assert report.lower_value == direct.lower.value
        assert report.upper_bound == str(direct.upper.bound.round(5))
        assert report.degree == bench.degree

    def test_source_request(self):
        report = execute_request(
            AnalysisRequest(
                source="var x;\nwhile x >= 1 do\n x := x - 1;\n tick(1)\nod",
                name="countdown",
                invariants={1: "x >= 0", 2: "x >= 1"},
                init={"x": 9.0},
                degree=1,
            )
        )
        assert report.ok
        assert report.name == "countdown"
        assert report.upper_value == pytest.approx(9.0, rel=1e-6)

    def test_parse_error_captured(self):
        report = execute_request(AnalysisRequest(source="var x; while x >= 1 do"))
        assert report.status == "error"
        assert "ParseError" in report.error

    def test_unknown_benchmark_captured(self):
        report = execute_request(AnalysisRequest(benchmark="no_such_benchmark"))
        assert report.status == "error"
        assert "unknown benchmark" in report.error

    def test_bad_init_captured(self):
        report = execute_request(AnalysisRequest(benchmark="rdwalk", init={"zz": 1.0}))
        assert report.status == "error"
        assert "unknown variable" in report.error

    def test_invalid_request_still_raises(self):
        with pytest.raises(ValueError):
            execute_request(AnalysisRequest())

    def test_timeout_reported(self):
        # A non-terminating simulation with a huge step cap: the task is
        # guaranteed to outlive the budget no matter how warm the
        # synthesis caches are, so the alarm path is exercised reliably.
        report = execute_request(
            AnalysisRequest(
                source="var x;\nwhile x >= 0 do\n x := x + 1;\n tick(1)\nod",
                name="spinner",
                init={"x": 0.0},
                degree=1,
                compute_lower=False,
                simulate_runs=1000,
                simulate_max_steps=100_000_000,
                timeout_s=0.05,
            )
        )
        assert report.status == "timeout"
        assert "0.05" in report.error
        assert report.runtime < 5.0

    def test_timeout_enforced_off_main_thread(self):
        """SIGALRM can't fire on a worker thread; the cooperative
        deadline must still surface status="timeout" there (the
        `repro serve` handler-thread regression)."""
        import threading

        outcome = {}

        def work():
            outcome["report"] = execute_request(
                AnalysisRequest(
                    source="var x;\nwhile x >= 0 do\n x := x + 1;\n tick(1)\nod",
                    name="spinner",
                    init={"x": 0.0},
                    degree=1,
                    compute_lower=False,
                    simulate_runs=1000,
                    simulate_max_steps=100_000_000,
                    timeout_s=0.05,
                )
            )

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=30)
        report = outcome["report"]
        assert report.status == "timeout"
        assert "0.05" in report.error
        assert report.runtime < 5.0

    def test_tails_attached_to_report(self):
        report = execute_request(
            AnalysisRequest(benchmark="rdwalk", degree=1, tails=True, tail_horizon=1000)
        )
        assert report.ok
        assert report.tail is not None
        assert report.tail["method"] == "azuma-hoeffding"
        assert report.tail["horizon"] == 1000
        assert report.tail["c"] > 0
        assert report.tail["probes"] and all(
            0 < probe["bound"] <= 1 for probe in report.tail["probes"]
        )

    def test_tails_unavailable_is_warning_not_error(self):
        report = execute_request(AnalysisRequest(benchmark="pol04", tails=True))
        assert report.ok
        assert report.tail is None
        assert any("tail bound unavailable" in w for w in report.warnings)

    def test_simulation_fields(self):
        report = execute_request(
            AnalysisRequest(benchmark="rdwalk", simulate_runs=150, simulate_seed=3)
        )
        assert report.ok
        assert report.sim_mean is not None
        assert report.sim_truncated == 0
        assert report.sim_termination_rate == 1.0
        # Simulated mean must respect the synthesized bracket.
        slack = 6 * report.sim_std / math.sqrt(150)
        assert report.lower_value - slack <= report.sim_mean <= report.upper_value + slack

    def test_simulation_truncation_warns(self):
        report = execute_request(
            AnalysisRequest(
                benchmark="rdwalk", simulate_runs=20, simulate_max_steps=5
            )
        )
        assert report.ok
        assert report.sim_truncated == 20
        assert any("truncated" in w for w in report.warnings)

    def test_nondet_simulation_skipped_with_warning(self):
        report = execute_request(
            AnalysisRequest(benchmark="bitcoin_mining", simulate_runs=10)
        )
        assert report.ok
        assert report.sim_mean is None
        assert any("skipped" in w for w in report.warnings)

    def test_nondet_prob_variant(self):
        report = execute_request(
            AnalysisRequest(benchmark="bitcoin_mining", nondet_prob=0.5, simulate_runs=20)
        )
        assert report.ok
        assert report.name == "bitcoin_mining_prob"
        assert report.sim_mean is not None


class TestDegreeEscalation:
    def test_auto_stops_at_minimal_feasible_degree(self):
        # pol04 needs a quadratic template: degree 1 must fail, 2 succeed.
        report = execute_request(AnalysisRequest(benchmark="pol04", degree="auto"))
        assert report.ok
        assert report.degrees_tried == [1, 2]
        assert report.degree == 2
        direct = get_benchmark("pol04").analyze(AnalysisOptions(degree=2))
        assert report.upper_value == direct.upper.value

    def test_auto_stops_immediately_when_degree_one_suffices(self):
        report = execute_request(AnalysisRequest(benchmark="rdwalk", degree="auto"))
        assert report.degrees_tried == [1]
        assert report.degree == 1
        assert report.upper_value is not None and report.lower_value is not None

    def test_auto_exhaustion_warns(self):
        # An unannotated unbounded-update program: no degree works.
        report = execute_request(
            AnalysisRequest(
                source="var x;\nwhile x >= 1 do\n x := x + (1, -1) : (0.9, 0.1);\n tick(1)\nod",
                name="diverging",
                init={"x": 5.0},
                degree="auto",
                max_degree=2,
            )
        )
        assert report.ok  # analysis ran; bounds just are not feasible
        assert report.degrees_tried == [1, 2]
        assert report.upper_value is None
        assert any("escalation exhausted" in w for w in report.warnings)


class TestRunBatch:
    def test_empty(self):
        assert run_batch([]) == []

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_batch([AnalysisRequest(benchmark="rdwalk")], jobs=0)

    def test_order_preserved_with_jobs(self):
        names = ["rdwalk", "ber", "linear01", "race", "bin"]
        reports = run_batch([AnalysisRequest(benchmark=n) for n in names], jobs=3)
        assert [r.name for r in reports] == names

    def test_progress_callback_sees_every_report(self):
        seen = []
        run_batch(
            [AnalysisRequest(benchmark="rdwalk"), AnalysisRequest(benchmark="ber")],
            jobs=2,
            progress=seen.append,
        )
        assert sorted(r.name for r in seen) == ["ber", "rdwalk"]

    def test_one_bad_task_does_not_poison_the_pool(self):
        reports = run_batch(
            [
                AnalysisRequest(benchmark="rdwalk"),
                AnalysisRequest(source="var x; while"),
                AnalysisRequest(benchmark="ber"),
            ],
            jobs=2,
        )
        assert [r.status for r in reports] == ["ok", "error", "ok"]


class TestParallelEquivalence:
    """Acceptance: a spec covering the table2+table3+table5 benchmark
    sets yields identical bounds with --jobs 2 and sequentially."""

    @pytest.fixture(scope="class")
    def full_spec_requests(self):
        return requests_from_spec(
            {"tasks": [{"suite": "table2"}, {"suite": "table3"}, {"suite": "table5"}]}
        )

    def test_engine_parallel_equals_sequential(self, full_spec_requests):
        sequential = run_batch(full_spec_requests, jobs=1)
        parallel = run_batch(full_spec_requests, jobs=2)
        assert [_bound_fingerprint(r) for r in parallel] == [
            _bound_fingerprint(r) for r in sequential
        ]
        assert all(r.status in ("ok",) for r in sequential)

    def test_sequential_engine_equals_driver(self):
        """The jobs=1 engine path reproduces direct Benchmark.analyze."""
        for name in ("ber", "simple_loop", "nested_loop"):
            report = execute_request(AnalysisRequest(benchmark=name))
            direct = get_benchmark(name).analyze()
            assert report.upper_value == (direct.upper.value if direct.upper else None)
            assert report.lower_value == (direct.lower.value if direct.lower else None)


class TestSimulationEngines:
    """The simulate_engine knob: wiring, reproducibility across jobs
    counts, and engine-stream separation in the reports."""

    def _request(self, engine, seed=9, runs=128):
        return AnalysisRequest(
            benchmark="rdwalk",
            simulate_runs=runs,
            simulate_seed=seed,
            simulate_engine=engine,
        )

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            self._request("turbo")

    @pytest.mark.parametrize("engine", ["auto", "vectorized", "reference"])
    def test_pool_matches_sequential_bitwise(self, engine):
        requests = [self._request(engine), self._request(engine, seed=10)]
        sequential = run_batch(requests, jobs=1)
        pooled = run_batch(requests, jobs=2)
        assert [(r.sim_mean, r.sim_std) for r in pooled] == [
            (r.sim_mean, r.sim_std) for r in sequential
        ]
        assert all(r.sim_mean is not None for r in sequential)

    def test_vectorized_and_reference_streams_differ(self):
        # Same seed, different engines: statistically equivalent, but
        # deliberately not bitwise equal (different RNG streams) — which
        # is why the engine is part of the cache fingerprint.
        vec = execute_request(self._request("vectorized", runs=1000))
        ref = execute_request(self._request("reference", runs=1000))
        assert vec.sim_mean != ref.sim_mean
        assert vec.sim_mean == pytest.approx(ref.sim_mean, rel=0.1)

    def test_repeat_is_bit_identical_per_engine(self):
        for engine in ("vectorized", "reference"):
            a = execute_request(self._request(engine))
            b = execute_request(self._request(engine))
            assert (a.sim_mean, a.sim_std) == (b.sim_mean, b.sim_std)
