"""The session facade of the public API.

An :class:`Analyzer` owns the resources an analysis session shares —
the content-addressed :class:`~repro.cache.ResultCache` and the worker
process pool — and exposes the whole pipeline behind two calls plus
staged inspection points:

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

Every method but :meth:`~Analyzer.parse` accepts a registry name,
source text, a :class:`~repro.programs.Benchmark` or a parsed
:class:`~repro.syntax.ast.Program` and resolves it by
:func:`repro.programs.resolve`, the one rule the batch engine, the
cache and :func:`repro.check.check_request` share: each staged method
resolves, then runs its stage.  The CLI's analysis verbs, the HTTP
service, the experiment tables and the perf harness analyze through
this class.
"""

from __future__ import annotations

import re
import threading
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, List, Mapping, Optional, Sequence, Union

from ..analysis.bounds import CostAnalysisResult, analyze_ladder, assemble_invariants
from ..batch.engine import _cached_execute, run_batch
from ..batch.spec import AnalysisReport, AnalysisRequest
from ..invariants import InvariantMap
from ..programs import Benchmark, get_benchmark, resolve
from ..semantics.cfg import CFG
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
    """One analysis session: options + cache + process pool.

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
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self._options = options if options is not None else AnalysisOptions()
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

    def request_cache_key(self, request: AnalysisRequest, resolved=None) -> Optional[str]:
        """The session-level cache key for an engine request, exactly as
        :meth:`analyze_batch` would run it — or ``None`` when the session
        has no cache or the request is unresolvable (unknown benchmark,
        parse error).  ``resolved`` is the request's
        :func:`repro.programs.resolve` triple, when the caller holds it.
        The HTTP service keys its single-flight request coalescing on
        this.
        """
        if self._cache is None:
            return None
        return self._cache.request_key(request, resolved)

    def cached_report(
        self, key: str, request: AnalysisRequest, resolved=None
    ) -> Optional[AnalysisReport]:
        """Session-cache lookup only — no execution.  Counts a hit or a
        miss on the session cache like any other consult."""
        if self._cache is None:
            return None
        return self._cache.lookup_for(key, request, resolved)

    # -- full pipeline ---------------------------------------------------

    def analyze(
        self,
        program: ProgramLike,
        options: Optional[AnalysisOptions] = None,
        **overrides: Any,
    ) -> AnalysisReport:
        """Run the full pipeline on one program; the canonical report.

        Consults/populates the session cache, honors timeouts and
        simulation settings — the same report (same keys, order and
        values) the batch engine, CLI and HTTP service produce for the
        same request against the same store.
        """
        report, _, _ = _cached_execute(self.request(program, options, **overrides), self._cache)
        return report

    def analyze_batch(
        self,
        requests: Sequence[Union[AnalysisRequest, Mapping[str, Any]]],
        progress: Optional[Callable[[AnalysisReport], None]] = None,
        jobs: Optional[int] = None,
        keys: Optional[Sequence[Optional[str]]] = None,
        resolved: Optional[Sequence[Optional[tuple]]] = None,
    ) -> List[AnalysisReport]:
        """Execute many requests; reports come back in request order.

        ``requests`` may mix :class:`AnalysisRequest` objects and plain
        spec-task dicts (``{"suite": ...}`` expansion included).
        ``jobs`` defaults to the session's degree of parallelism (its
        persistent pool); pass an explicit value to override for one
        batch.  ``keys`` are cache keys the caller already holds (from
        :meth:`request_cache_key`) and ``resolved`` the
        :func:`repro.programs.resolve` triples, one per expanded request.
        """
        from ..batch.spec import requests_from_spec

        expanded: List[AnalysisRequest] = []
        for item in requests:
            if isinstance(item, AnalysisRequest):
                expanded.append(item)
            elif isinstance(item, Mapping) and "tasks" in item:
                # A full {"defaults": ..., "tasks": ...} spec object.
                expanded.extend(requests_from_spec(item))
            elif isinstance(item, Mapping):
                expanded.extend(requests_from_spec([dict(item)]))
            else:
                raise TypeError(
                    f"requests must be AnalysisRequest objects or task dicts, "
                    f"got {type(item).__name__}"
                )
        effective_jobs = self._jobs if jobs is None else jobs
        pool = self._session_pool() if jobs is None else None
        return run_batch(
            expanded,
            jobs=effective_jobs,
            progress=progress,
            cache=self._cache,
            pool=pool,
            # Session-level crash-retry default; per-request ``retry``
            # fields still win inside the engine.
            retry=self._options.retry,
            keys=keys,
            resolved=resolved,
        )

    # -- staged pipeline -------------------------------------------------

    def parse(self, source: str, name: Optional[str] = None) -> Program:
        """Stage 1: surface syntax to AST."""
        return parse_program(source, name=name)

    def _resolve(self, program: ProgramLike, options, overrides):
        """``(benchmark, init, settings)`` by :func:`repro.programs.resolve`:
        a name or source text through :meth:`request`, an object as is."""
        opts = self._merged(options, overrides)
        if isinstance(program, (Benchmark, Program)):
            return resolve(opts, program)
        return resolve(self.request(program, opts))

    def build_cfg(self, program: ProgramLike) -> CFG:
        """Stage 2: the labelled control-flow graph the pipeline
        analyzes (the session's ``nondet_prob`` applied)."""
        return self._resolve(program, None, {})[0].cfg

    def lint(
        self,
        program: ProgramLike,
        options: Optional[AnalysisOptions] = None,
        **overrides: Any,
    ):
        """Stage 2.5: the static lint pass (:mod:`repro.check`).

        Returns the :class:`~repro.check.CheckResult` for the exact CFG
        and invariants the full pipeline would analyze.  No LP work, no
        cache.
        """
        from ..check import check_request

        bench, _, settings = self._resolve(program, options, overrides)
        return check_request(settings, bench)

    def derive_invariants(
        self,
        program: ProgramLike,
        options: Optional[AnalysisOptions] = None,
        **overrides: Any,
    ) -> InvariantMap:
        """Stage 3: the invariant map synthesis will run under.

        The resolved annotations, strengthened — when
        ``options.auto_invariants`` — with the invariants generated in
        ``options.invariant_domain``, by the same
        :func:`~repro.analysis.bounds.assemble_invariants` the degree
        ladder runs: interval invariants fill unannotated labels only,
        while octagon invariants also conjoin into annotated ones.  The
        lint pass does not run here, whatever ``options.check`` says.
        """
        bench, init, settings = self._resolve(program, options, overrides)
        inv, _ = assemble_invariants(bench, init, replace(settings, check="off"))
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
        flat report cannot carry.  It resolves and runs the degree
        ladder exactly as :meth:`analyze` does, so the values, warnings
        and diagnostics agree.  A parsed :class:`Program` is analyzed
        *as parsed* (no pretty-print round trip, so exact float
        literals survive).
        """
        bench, init, settings = self._resolve(program, options, overrides)
        return analyze_ladder(bench, init, settings, check_concentration=check_concentration)

    def __repr__(self) -> str:
        cache = getattr(self._cache, "root", None)
        return f"Analyzer(jobs={self._jobs}, cache={str(cache) if cache else None!r})"
