"""The session facade of the public API.

An :class:`Analyzer` owns the resources an analysis session shares —
the content-addressed :class:`~repro.cache.ResultCache`, the resolved
LP solver backend, and the worker process pool — and exposes the whole
pipeline behind two calls plus staged inspection points:

* :meth:`Analyzer.analyze` — one program (benchmark name, source text,
  a :class:`~repro.programs.Benchmark`, a parsed
  :class:`~repro.syntax.ast.Program`) to one canonical
  :class:`~repro.batch.spec.AnalysisReport`, cache-consulted;
* :meth:`Analyzer.analyze_batch` — many requests across the session's
  pool, reports in request order;
* :meth:`Analyzer.parse` / :meth:`build_cfg` / :meth:`lint` /
  :meth:`derive_invariants` / :meth:`synthesize` — the paper's
  pipeline one stage at a time, returning the intermediate artifacts
  (AST, CFG, lint :class:`~repro.check.CheckResult`, invariant map,
  rich :class:`CostAnalysisResult`).

Every front end (CLI, HTTP service, batch engine drivers, experiment
tables, perf harness) is a thin adapter over this class, so a knob
added to :class:`AnalysisOptions` is immediately available everywhere.
"""

from __future__ import annotations

import re
import threading
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, List, Mapping, Optional, Sequence, Union

from ..analysis.bounds import CostAnalysisResult, analyze_for
from ..batch.engine import _cached_execute, run_batch
from ..batch.spec import AnalysisReport, AnalysisRequest
from ..invariants import InvariantMap
from ..invariants.generator import strengthen_invariants
from ..programs import Benchmark, get_benchmark
from ..semantics.cfg import CFG, build_cfg
from ..syntax.ast import Program
from ..syntax.parser import parse_program
from ..syntax.pretty import pretty
from .options import AnalysisOptions

__all__ = ["Analyzer"]

#: A bare identifier-ish string is treated as a registry benchmark
#: name; anything else (whitespace, keywords, operators) is source.
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")

#: What ``analyze``/``synthesize``/``fingerprint`` accept as a program.
ProgramLike = Union[str, Program, Benchmark]


def _resolve_cache(cache):
    """``None``/``False`` = no cache, ``True`` = the default store, a
    path = a store there, anything else = an already-built cache."""
    if cache is None or cache is False:
        return None
    from ..cache import ResultCache

    if cache is True:
        return ResultCache()
    if isinstance(cache, (str, Path)):
        return ResultCache(cache)
    return cache


class Analyzer:
    """One analysis session: options + cache + solver + process pool.

    ::

        from repro.api import AnalysisOptions, Analyzer

        with Analyzer(AnalysisOptions(degree="auto"), cache=True, jobs=4) as az:
            report = az.analyze("rdwalk")
            reports = az.analyze_batch([{"suite": "table3"}])

    The session's ``options`` are the defaults for every call; per-call
    ``options=`` replaces them wholesale and keyword ``overrides``
    tweak individual fields.
    """

    def __init__(
        self,
        options: Optional[AnalysisOptions] = None,
        *,
        cache=None,
        jobs: int = 1,
        solver: Optional[str] = None,
    ):
        base = options if options is not None else AnalysisOptions()
        if solver is not None:
            base = base.merge(solver=solver)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self._options = base
        self._cache = _resolve_cache(cache)
        self._jobs = jobs
        self._pool = None
        self._pool_lock = threading.Lock()
        self._closed = False

    # -- session resources ----------------------------------------------

    @property
    def options(self) -> AnalysisOptions:
        return self._options

    @property
    def cache(self):
        """The session's :class:`~repro.cache.ResultCache` (or None)."""
        return self._cache

    @property
    def jobs(self) -> int:
        return self._jobs

    def _session_pool(self):
        """The lazily-created pool sized ``jobs`` (None when jobs == 1).

        Lazy init is locked: the HTTP service shares one Analyzer
        across handler threads, and two concurrent first batches must
        not each fork a pool (the loser's workers would leak).
        """
        if self._closed:
            raise RuntimeError("Analyzer is closed")
        if self._jobs == 1:
            return None
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("Analyzer is closed")
            if self._pool is None:
                from ..resilience import ResilientPool

                self._pool = ResilientPool(processes=self._jobs)
            return self._pool

    def close(self) -> None:
        """Release the worker pool; the cache store stays on disk."""
        with self._pool_lock:
            self._closed = True
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None

    def __enter__(self) -> "Analyzer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- options & request plumbing -------------------------------------

    def _merged(self, options: Optional[AnalysisOptions], overrides: Mapping[str, Any]) -> AnalysisOptions:
        base = options if options is not None else self._options
        return base.merge(**overrides) if overrides else base

    def request(
        self,
        program: ProgramLike,
        options: Optional[AnalysisOptions] = None,
        **overrides: Any,
    ) -> AnalysisRequest:
        """The engine/cache work unit ``analyze`` would execute.

        Exposed so callers can inspect, batch or fingerprint exactly
        what a call will do.  A parsed :class:`Program` is embedded as
        pretty-printed source (requests are JSON-plain); float literals
        that don't survive ``%g`` formatting should be submitted as
        source text or via :meth:`synthesize`, which analyzes the AST
        as-is.
        """
        opts = self._merged(options, overrides)
        if isinstance(program, Benchmark):
            return AnalysisRequest.for_benchmark(program, opts)
        if isinstance(program, Program):
            return opts.to_request(source=pretty(program), name=program.name)
        if isinstance(program, str):
            if _NAME_RE.match(program):
                # Raises KeyError with a did-you-mean suggestion for a
                # typo'd benchmark name instead of a baffling parse error.
                get_benchmark(program)
                return opts.to_request(benchmark=program)
            return opts.to_request(source=program)
        raise TypeError(
            "program must be a benchmark name, source text, a Benchmark or a "
            f"parsed Program, got {type(program).__name__}"
        )

    def fingerprint(self, program: ProgramLike, options=None, **overrides: Any) -> str:
        """The content-addressed cache key for this (program, options).

        Two calls that fingerprint equal are guaranteed byte-identical
        reports against a shared cache, whatever front end issues them.
        """
        from ..cache import request_key

        return request_key(self.request(program, options, **overrides))

    def request_cache_key(self, request: AnalysisRequest) -> Optional[str]:
        """The session-level cache key for an engine request — session
        solver filled in, exactly as :meth:`analyze_batch` would run it
        — or ``None`` when the session has no cache or the request is
        unresolvable (unknown benchmark, parse error).  The HTTP
        service keys its single-flight request coalescing on this.
        """
        if self._cache is None:
            return None
        if request.solver is None and self._options.solver is not None:
            request = replace(request, solver=self._options.solver)
        return self._cache.request_key(request)

    def cached_report(self, key: str, request: AnalysisRequest) -> Optional[AnalysisReport]:
        """Session-cache lookup only — no execution.  Counts a hit or a
        miss on the session cache like any other consult."""
        if self._cache is None:
            return None
        return self._cache.lookup_for(key, request)

    # -- full pipeline ---------------------------------------------------

    def analyze(
        self,
        program: ProgramLike,
        options: Optional[AnalysisOptions] = None,
        **overrides: Any,
    ) -> AnalysisReport:
        """Run the full pipeline on one program; the canonical report.

        Consults/populates the session cache, runs on the session's
        solver backend, honors timeouts and simulation settings —
        byte-identical to what the batch engine, CLI and HTTP service
        produce for the same request against the same store.
        """
        report, _, _ = _cached_execute(self.request(program, options, **overrides), self._cache)
        return report

    def analyze_batch(
        self,
        requests: Sequence[Union[AnalysisRequest, Mapping[str, Any]]],
        progress: Optional[Callable[[AnalysisReport], None]] = None,
        jobs: Optional[int] = None,
    ) -> List[AnalysisReport]:
        """Execute many requests; reports come back in request order.

        ``requests`` may mix :class:`AnalysisRequest` objects and plain
        spec-task dicts (``{"suite": ...}`` expansion included).  Tasks
        that don't pin a solver inherit the session's.  ``jobs``
        defaults to the session's degree of parallelism (its persistent
        pool); pass an explicit value to override for one batch.
        """
        from ..batch.spec import requests_from_spec

        resolved: List[AnalysisRequest] = []
        for item in requests:
            if isinstance(item, AnalysisRequest):
                resolved.append(item)
            elif isinstance(item, Mapping) and "tasks" in item:
                # A full {"defaults": ..., "tasks": ...} spec object.
                resolved.extend(requests_from_spec(item))
            elif isinstance(item, Mapping):
                resolved.extend(requests_from_spec([dict(item)]))
            else:
                raise TypeError(
                    f"requests must be AnalysisRequest objects or task dicts, "
                    f"got {type(item).__name__}"
                )
        session_solver = self._options.solver
        if session_solver is not None:
            resolved = [
                replace(request, solver=session_solver) if request.solver is None else request
                for request in resolved
            ]
        effective_jobs = self._jobs if jobs is None else jobs
        pool = self._session_pool() if jobs is None else None
        return run_batch(
            resolved,
            jobs=effective_jobs,
            progress=progress,
            cache=self._cache,
            pool=pool,
            # Session-level crash-retry default; per-request ``retry``
            # fields still win inside the engine.
            retry=self._options.retry,
        )

    # -- staged pipeline -------------------------------------------------

    def parse(self, source: str, name: Optional[str] = None) -> Program:
        """Stage 1: surface syntax to AST."""
        return parse_program(source, name=name)

    def build_cfg(self, program: Union[str, Program, Benchmark]) -> CFG:
        """Stage 2: AST to the labelled control-flow graph."""
        if isinstance(program, Benchmark):
            return program.cfg
        if isinstance(program, str):
            program = self.parse(program)
        return build_cfg(program)

    def lint(
        self,
        program: ProgramLike,
        options: Optional[AnalysisOptions] = None,
        **overrides: Any,
    ):
        """Stage 2.5: the static lint pass (:mod:`repro.check`).

        Returns the :class:`~repro.check.CheckResult` for the exact CFG
        the full pipeline would analyze — benchmark resolution,
        ``options.init``/``options.invariants`` and the coin-flip
        transformation all apply.  No LP work, no cache.
        """
        from ..check import check_benchmark, check_program
        from ..programs import probabilistic_variant
        from ..syntax.transform import replace_nondet

        opts = self._merged(options, overrides)
        if isinstance(program, str) and _NAME_RE.match(program):
            program = get_benchmark(program)
        if isinstance(program, Benchmark):
            if opts.nondet_prob is not None and program.has_nondeterminism:
                program = probabilistic_variant(program, prob=opts.nondet_prob)
            init = dict(opts.init) if opts.init is not None else None
            return check_benchmark(program, init=init, invariant_domain=opts.invariant_domain)
        parsed = self.parse(program) if isinstance(program, str) else program
        if not isinstance(parsed, Program):
            raise TypeError(
                "program must be a benchmark name, source text, a Benchmark or a "
                f"parsed Program, got {type(program).__name__}"
            )
        if opts.nondet_prob is not None and parsed.has_nondeterminism():
            parsed = replace_nondet(parsed, prob=opts.nondet_prob)
        return check_program(
            parsed,
            init=dict(opts.init) if opts.init is not None else None,
            invariants=dict(opts.invariants) if opts.invariants else None,
            invariant_domain=opts.invariant_domain,
        )

    def derive_invariants(
        self,
        program: Union[str, Program, Benchmark, CFG],
        options: Optional[AnalysisOptions] = None,
        **overrides: Any,
    ) -> InvariantMap:
        """Stage 3: the invariant map synthesis will run under.

        Assembles annotations (the benchmark's own, or
        ``options.invariants`` for inline source) and — when
        ``options.auto_invariants`` — strengthens them with
        automatically generated invariants in
        ``options.invariant_domain``, exactly as the full pipeline
        does: interval invariants fill unannotated labels only, while
        octagon invariants additionally conjoin into annotated ones.
        """
        opts = self._merged(options, overrides)
        if isinstance(program, Benchmark):
            cfg = program.cfg
            init = dict(opts.init) if opts.init is not None else dict(program.init)
            inv = program.invariant_map(init)
        else:
            cfg = program if isinstance(program, CFG) else self.build_cfg(program)
            init = dict(opts.init) if opts.init is not None else {}
            if opts.invariants:
                inv = InvariantMap.from_strings(cfg, dict(opts.invariants))
            else:
                inv = InvariantMap.trivial()
        if opts.auto_invariants:
            strengthen_invariants(inv, cfg, init, opts.invariant_domain)
        return inv

    def synthesize(
        self,
        program: ProgramLike,
        options: Optional[AnalysisOptions] = None,
        *,
        check_concentration: bool = False,
        **overrides: Any,
    ) -> CostAnalysisResult:
        """Stage 4: the rich in-process result (program, CFG, invariant
        map, :class:`BoundResult` objects, warnings).

        Unlike :meth:`analyze` this bypasses the cache and the process
        pool — it exists to hand back the intermediate artifacts the
        flat report cannot carry.  Degree escalation, the coin-flip
        transformation and the session solver all still apply.  A
        parsed :class:`Program` is analyzed *as parsed* (no
        pretty-print round trip, so exact float literals survive).
        """
        from ..core.solvers import use_solver
        from ..syntax.transform import replace_nondet

        opts = self._merged(options, overrides)
        if isinstance(program, str) and _NAME_RE.match(program):
            program = get_benchmark(program)
        if isinstance(program, Benchmark):
            return program.analyze(opts, check_concentration=check_concentration)
        parsed = self.parse(program) if isinstance(program, str) else program
        if not isinstance(parsed, Program):
            raise TypeError(
                "program must be a benchmark name, source text, a Benchmark or a "
                f"parsed Program, got {type(program).__name__}"
            )
        if opts.nondet_prob is not None and parsed.has_nondeterminism():
            parsed = replace_nondet(parsed, prob=opts.nondet_prob)
        with use_solver(opts.solver):
            return analyze_for(
                parsed,
                dict(opts.init) if opts.init is not None else {},
                dict(opts.invariants) if opts.invariants else None,
                opts,
                check_concentration=check_concentration,
            )

    def __repr__(self) -> str:
        cache = getattr(self._cache, "root", None)
        return (
            f"Analyzer(jobs={self._jobs}, cache={str(cache) if cache else None!r}, "
            f"solver={self._options.solver!r})"
        )
