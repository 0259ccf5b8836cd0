"""Process-pool batch-analysis engine.

:func:`run_batch` fans a list of :class:`AnalysisRequest` tasks across
worker processes (``jobs > 1``, via the crash-safe
:class:`repro.resilience.ResilientPool`) or runs them in-process
(``jobs == 1``, the default — byte-identical results, no pool
overhead).  Every task is isolated: an exception becomes a
``status="error"`` report, a blown per-task budget becomes
``status="timeout"``, and a worker death (SIGKILL, segfault) respawns
the worker and requeues the victim under its retry budget — becoming
``status="crashed"`` only once that budget is exhausted.  Nothing takes
the rest of the batch down.  Reports come back in request order
regardless of completion order, so ``--jobs N`` never changes the
output, only the wall clock.

Adaptive degree escalation (``degree="auto"``) mirrors how the paper's
evaluation picks template degrees: try d = 1, 2, ... ``max_degree`` and
keep the first degree at which the requested bounds are feasible
(:func:`repro.analysis.bounds.analyze_for`, shared with the staged
API).

The analysis itself is deterministic (LP synthesis; Monte-Carlo columns
are seeded), which is what makes sequential/parallel equivalence exact —
and what makes results cacheable: pass ``cache`` (a
:class:`repro.cache.ResultCache`) and every task consults the shared
content-addressed store before synthesizing, then populates it with
``status == "ok"`` reports.  Pool workers clone the cache over the same
root, so a parallel batch warms the store for every later sequential
run and vice versa; a warm re-run performs zero LP solves.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.bounds import CostAnalysisResult, analyze_for
from ..core.lp import SOLVER_ID
from ..deadline import DeadlineExceeded, deadline_scope
from ..errors import CheckError, ReproError
from ..programs import Benchmark, get_benchmark, probabilistic_variant
from ..resilience import DEFAULT_RETRY_POLICY, PoolTask, ResilientPool, RetryPolicy, faults
from ..semantics import simulate
from .spec import AnalysisReport, AnalysisRequest

__all__ = ["execute_request", "run_batch"]


class BatchTimeout(Exception):
    """Internal: raised inside a task when its wall-clock budget expires."""


@contextmanager
def _task_budget(seconds: Optional[float]):
    """Enforce a per-task wall-clock budget in the current thread.

    Two mechanisms layer:

    * a real-time ``SIGALRM`` interval timer — preemptive, but only
      deliverable on the main thread of a process (CLI runs and pool
      workers);
    * the cooperative deadline of :mod:`repro.deadline` — armed
      unconditionally, checked at the synthesis/simulation checkpoints,
      and therefore effective on ``repro serve`` handler threads too,
      where the signal path used to leave ``timeout_s`` silently
      unenforced.

    Either mechanism firing surfaces as ``status="timeout"``.
    """
    signal_usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not signal_usable:
        with deadline_scope(seconds):
            yield
        return

    def _on_alarm(signum, frame):
        raise BatchTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with deadline_scope(seconds):
            yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Request resolution
# ---------------------------------------------------------------------------

#: (benchmark name, prob) -> variant Benchmark.  ``probabilistic_variant``
#: re-parses the program; per-process memoisation keeps repeated inits of
#: the same Table 5 variant on the cached CFG, like the registry benches.
_VARIANT_CACHE: Dict[Tuple[str, float], Benchmark] = {}


def _resolve_benchmark(request: AnalysisRequest) -> Benchmark:
    if request.benchmark is not None:
        bench = get_benchmark(request.benchmark)
        if request.invariants is not None:
            # Annotation override: replace the registry invariants with
            # the request's (``{}`` drops them entirely — the point of
            # invariant_domain="octagon" sweeps).  Init-dependent
            # annotations are dropped too; the override is total.
            from dataclasses import replace as dataclass_replace

            bench = dataclass_replace(
                bench, invariants=dict(request.invariants), init_invariants=None
            )
    else:
        bench = Benchmark(
            name=request.display_name,
            title=request.display_name,
            source=request.source or "",
            invariants=dict(request.invariants or {}),
            init=dict(request.init or {}),
            degree=2,
        )
    if request.nondet_prob is not None and bench.has_nondeterminism:
        if request.benchmark is not None and request.invariants is None:
            key = (request.benchmark, request.nondet_prob)
            variant = _VARIANT_CACHE.get(key)
            if variant is None:
                variant = probabilistic_variant(bench, prob=request.nondet_prob)
                _VARIANT_CACHE[key] = variant
            bench = variant
        else:
            bench = probabilistic_variant(bench, prob=request.nondet_prob)
    return bench


def _fill_bounds(report: AnalysisReport, result: CostAnalysisResult) -> None:
    report.mode = result.mode.name
    report.warnings = list(result.warnings)
    report.lower_skipped = result.lower_skipped
    if result.upper is not None:
        report.upper_value = result.upper.value
        report.upper_bound = str(result.upper.bound.round(5))
        report.upper_runtime = result.upper.runtime
    if result.lower is not None:
        report.lower_value = result.lower.value
        report.lower_bound = str(result.lower.bound.round(5))
        report.lower_runtime = result.lower.runtime
        report.policy_enumerated = result.lower.policy_enumerated
    if result.tail is not None:
        report.tail = result.tail.to_dict()


def execute_request(request: AnalysisRequest, attempt: int = 1) -> AnalysisReport:
    """Run one task in the current process and capture the outcome.

    Never raises for analysis-level failures: parse errors, infeasible
    LPs, bad valuations and timeouts all come back as structured
    reports.  (Ill-formed settings never get here: the request raised
    ``ValueError`` when it was constructed.)

    ``attempt`` is the 1-based execution count the resilient pool
    passes on crash retries; it feeds the deterministic fault-injection
    hook and nothing else — the analysis itself is attempt-invariant.
    """
    start = time.perf_counter()
    report = AnalysisReport(
        name=request.display_name,
        status="ok",
        tag=request.tag,
        invariant_domain=request.invariant_domain,
    )
    try:
        with _task_budget(request.timeout_s):
            # Deterministic chaos hook (no-op unless REPRO_FAULTS is
            # set): may SIGKILL this worker, sleep, or raise an
            # InjectedFaultError that surfaces as a normal error report.
            faults.on_task_attempt(request.display_name, attempt)
            report.solver = SOLVER_ID
            bench = _resolve_benchmark(request)
            if request.name is None:
                report.name = bench.name
            init = dict(request.init) if request.init is not None else dict(bench.init)
            report.init = init

            # The degree ladder lints first when asked: in strict mode an
            # error-severity finding rejects the task before any
            # template/LP work.
            result = analyze_for(
                bench.program,
                init,
                bench.invariant_map(init),
                request,
                degree=bench.degree,
                mode=bench.mode,
            )
            report.analysis_runtime = time.perf_counter() - start
            report.degrees_tried = list(result.degrees_tried)
            report.degree = result.degrees_tried[-1]
            if result.diagnostics is not None:
                report.diagnostics = [d.to_dict() for d in result.diagnostics]
            _fill_bounds(report, result)

            if request.simulate_runs is not None:
                if bench.has_nondeterminism and not request.simulate_nondet:
                    report.warnings.append(
                        "simulation skipped: program is nondeterministic "
                        "(set nondet_prob to fix a coin-flip policy)"
                    )
                else:
                    stats = simulate(
                        bench.cfg,
                        init,
                        runs=request.simulate_runs,
                        seed=request.simulate_seed,
                        max_steps=request.simulate_max_steps,
                        engine=request.simulate_engine,
                    )
                    # Truncated runs are excluded from mean/std (their
                    # partial cost would bias Monte-Carlo soundness
                    # checks low); with no terminated runs at all there
                    # is no mean to report.
                    if stats.terminated_runs > 0:
                        report.sim_mean = stats.mean
                        report.sim_std = stats.std
                    report.sim_truncated = stats.truncated
                    report.sim_termination_rate = stats.termination_rate
                    if stats.truncated:
                        report.warnings.append(
                            f"{stats.truncated} of {stats.runs} simulated runs were "
                            f"truncated at {request.simulate_max_steps} steps and "
                            "excluded from sim mean/std (mean partial cost "
                            f"{stats.truncated_mean:g}); raise simulate_max_steps "
                            "to cover them"
                        )
    except CheckError as exc:
        report.status = "rejected"
        report.diagnostics = [d.to_dict() for d in exc.diagnostics]
        codes = sorted({d.code for d in exc.diagnostics if d.severity == "error"})
        report.error = f"rejected by static checks: {', '.join(codes)}"
    except (BatchTimeout, DeadlineExceeded):
        report.status = "timeout"
        report.error = f"TimeoutError: task exceeded {request.timeout_s:g}s budget"
    except (ReproError, ValueError, KeyError, RuntimeError, OverflowError, ZeroDivisionError) as exc:
        report.status = "error"
        report.error = f"{type(exc).__name__}: {exc}"
    report.runtime = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Cache consult/populate
# ---------------------------------------------------------------------------


def _cached_execute(
    request: AnalysisRequest, cache, attempt: int = 1, key: Optional[str] = None
) -> Tuple[AnalysisReport, Optional[bool], bool]:
    """Run one task through the content-addressed store.

    Returns ``(report, hit, stored)`` where ``hit`` is ``True`` for a
    cache hit, ``False`` for a consulted-but-cold key, and ``None``
    when the cache was bypassed (no cache, or the key cannot be derived
    — unknown benchmark, unparseable source — in which case the failure
    surfaces as a structured report exactly as in the uncached path);
    ``stored`` reports whether this call persisted a new entry.
    ``key`` is the request's cache key when the caller already holds
    it; ``None`` derives it here.  Only ``status == "ok"`` reports are
    persisted — errors and timeouts are environment-dependent and must
    re-execute.  A cached
    report is returned verbatim (original runtimes included) so warm
    re-runs are byte-identical; only the presentation echoes (``name``,
    ``tag``) are re-derived for the incoming request.
    """
    if cache is None:
        return execute_request(request, attempt), None, False
    if key is None:
        key = cache.request_key(request)
    if key is None:
        return execute_request(request, attempt), None, False
    report = cache.lookup_for(key, request)
    if report is not None:
        return report, True, False
    report = execute_request(request, attempt)
    stored = report.status == "ok" and cache.store(key, report)
    return report, False, stored


# ---------------------------------------------------------------------------
# Pool fan-out
# ---------------------------------------------------------------------------

#: cache root -> per-process ResultCache clone (one per pool worker).
_WORKER_CACHES: Dict[str, object] = {}


def _worker_cache(config: Optional[Dict]):
    if config is None:
        return None
    root = config["root"]
    cache = _WORKER_CACHES.get(root)
    if cache is None:
        from ..cache import ResultCache

        cache = ResultCache(root, max_memory_entries=config["max_memory_entries"])
        _WORKER_CACHES[root] = cache
    return cache


def _pool_worker(
    payload: Tuple[int, Dict, Optional[Dict], Optional[str]], attempt: int = 1
) -> Tuple[int, Dict, Optional[bool], bool]:
    """Module-level so it pickles under both fork and spawn contexts.

    ``attempt`` arrives from the resilient pool on crash retries; the
    legacy ``multiprocessing.Pool`` path calls with the default.
    """
    index, request_dict, cache_config, key = payload
    hit: Optional[bool] = None
    stored = False
    try:
        report, hit, stored = _cached_execute(
            AnalysisRequest.from_dict(request_dict), _worker_cache(cache_config), attempt, key
        )
    except Exception as exc:  # defensive: never poison the pool
        report = AnalysisReport(
            name=str(request_dict.get("name") or request_dict.get("benchmark") or "<source>"),
            status="error",
            error=f"{type(exc).__name__}: {exc}",
        )
    return index, report.to_dict(), hit, stored


def _crashed_report(request: AnalysisRequest, outcome) -> AnalysisReport:
    """Synthesize the terminal report for a retry-exhausted crash."""
    return AnalysisReport(
        name=request.display_name,
        status="crashed",
        tag=request.tag,
        error=f"WorkerCrashError: {outcome.detail}",
        runtime=outcome.runtime,
        attempts=outcome.attempts,
    )


def run_batch(
    requests: Sequence[AnalysisRequest],
    jobs: int = 1,
    progress: Optional[Callable[[AnalysisReport], None]] = None,
    cache=None,
    pool=None,
    retry: Optional[RetryPolicy] = None,
    keys: Optional[Sequence[Optional[str]]] = None,
) -> List[AnalysisReport]:
    """Execute ``requests`` and return reports in request order.

    ``jobs == 1`` (default) runs in-process; ``jobs > 1`` fans out over
    a :class:`repro.resilience.ResilientPool` — a worker SIGKILLed or
    segfaulted mid-task is respawned and its task requeued under the
    effective :class:`RetryPolicy` (per-request ``retry`` field, else
    the ``retry`` argument, else one retry with jittered backoff);
    budget exhaustion yields a ``status="crashed"`` report instead of
    hanging or poisoning the batch.  Reports carry ``attempts``, and
    the returned list stays in request order regardless of crashes.

    ``progress`` is invoked once per finished task, in *completion*
    order.  ``cache`` (a :class:`repro.cache.ResultCache`)
    short-circuits previously solved tasks; with a pool, workers clone
    it over the same root and the parent instance aggregates their
    hit/miss counts, so ``cache.stats()`` reflects the whole batch.

    ``pool`` lends an already-running :class:`ResilientPool` (e.g. the
    one a :class:`repro.api.Analyzer` session owns): the batch fans out
    on it, ``jobs`` is ignored, and the pool is left running for the
    caller to reuse or close.  A legacy ``multiprocessing.Pool`` is
    still accepted and used as before (no crash safety).

    ``keys`` are cache keys the caller already derived, one per request
    (``None`` entries are derived as usual), so a request is not
    fingerprinted twice.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if keys is None:
        keys = [None] * len(requests)
    elif len(keys) != len(requests):
        raise ValueError(f"got {len(keys)} keys for {len(requests)} requests")
    if not requests:
        return []

    if jobs == 1 and pool is None:
        reports = []
        for request, key in zip(requests, keys):
            report, _, _ = _cached_execute(request, cache, key=key)
            if progress is not None:
                progress(report)
            reports.append(report)
        return reports

    cache_config = cache.worker_config() if cache is not None else None
    ordered: List[Optional[AnalysisReport]] = [None] * len(requests)

    if pool is not None and not isinstance(pool, ResilientPool):
        # Lent multiprocessing.Pool: the pre-resilience fan-out path.
        payloads = [
            (index, request.to_dict(), cache_config, keys[index])
            for index, request in enumerate(requests)
        ]
        for index, report_dict, hit, stored in pool.imap_unordered(_pool_worker, payloads):
            report = AnalysisReport.from_dict(report_dict)
            ordered[index] = report
            if cache is not None and hit is not None:
                # Fold worker-side consults into the parent counters;
                # bypassed (uncacheable) tasks count nowhere, matching
                # the jobs == 1 accounting exactly.
                cache.record(hit, stored=stored)
            if progress is not None:
                progress(report)
        assert all(report is not None for report in ordered)
        return ordered  # type: ignore[return-value]

    fallback = retry if retry is not None else DEFAULT_RETRY_POLICY
    tasks = [
        PoolTask(
            task_id=index,
            payload=(index, request.to_dict(), cache_config, keys[index]),
            retry=request.retry if request.retry is not None else fallback,
            name=request.display_name,
        )
        for index, request in enumerate(requests)
    ]

    def _on_result(outcome) -> None:
        request = requests[outcome.task_id]
        if outcome.crashed:
            report = _crashed_report(request, outcome)
        else:
            _, report_dict, hit, stored = outcome.value
            report = AnalysisReport.from_dict(report_dict)
            # Attempt accounting lives with the parent: the worker that
            # finally succeeded only ever saw its own attempt, and
            # cached entries must stay at attempts=1.
            report.attempts = outcome.attempts
            if cache is not None and hit is not None:
                cache.record(hit, stored=stored)
        ordered[outcome.task_id] = report
        if progress is not None:
            progress(report)

    own_pool = pool is None
    if own_pool:
        pool = ResilientPool(processes=min(jobs, len(requests)))
    try:
        pool.run(tasks, on_result=_on_result)
    finally:
        if own_pool:
            pool.terminate()
    assert all(report is not None for report in ordered)
    return ordered  # type: ignore[return-value]
