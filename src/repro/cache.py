"""Content-addressed result cache for analysis reports.

The paper's pipeline (invariants -> Handelman certificates -> LP
bounds) is deterministic per (program, initial valuation, degree plan,
mode, multiplicand cap, solver version), so any two requests with the
same *semantic* content must produce the same :class:`AnalysisReport`.
This module exploits that: every request is reduced to a canonical
fingerprint, hashed (SHA-256), and the finished report is stored under
that hash — batch re-runs, table drivers and the ``repro serve`` HTTP
service all short-circuit to a lookup.

Key derivation
--------------
:func:`request_fingerprint` resolves a request by
:func:`repro.programs.resolve`, as the batch engine does (registry
benchmark lookup, the ``invariants`` override, the Table 5
``nondet_prob`` transformation, init-dependent invariants, the degree
escalation plan) and then serializes the *parsed program AST* — not the
raw source text — so whitespace, comments and formatting never split
the cache.  Floats are serialized with full ``repr`` precision; the
pretty-printer's ``%g`` display formatting is deliberately not part of
the key.  Request fields that only affect presentation or scheduling
(``name``, ``tag``, ``timeout_s``, ``retry``) are excluded; a cache hit
re-echoes the presentation ones from the incoming request.  The batch
engine resolves a request once and hands the triple to the key, to a
hit's name restore and to the run, so a cold inline source is parsed
once.

Every fingerprint embeds :func:`cache_salt` — the entry-schema version,
the ``repro`` version and the SciPy version — so a code or solver
upgrade silently invalidates stale entries instead of serving bounds a
different implementation computed.  The fingerprint also carries the
LP solver id (:data:`repro.core.lp.SOLVER_ID`, always ``"highs"``), so
keys stay the ones written when the solver was selectable.

Storage
-------
One JSON file per entry (``<sha256>.json``) under the cache root,
written atomically (``mkstemp`` + ``os.replace``) so concurrent batch
workers on the same store never observe torn entries.  An in-process
LRU front (bounded, thread-safe) keeps hot entries out of the
filesystem entirely.  Only ``status == "ok"`` reports are cached:
errors and timeouts are environment-dependent and must re-execute.

``repro cache stats`` / ``repro cache clear`` expose the store on the
command line; the default root is ``$REPRO_CACHE_DIR``, falling back
to ``$XDG_CACHE_HOME/repro`` (``~/.cache/repro``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from .semantics.distributions import (
    BernoulliDistribution,
    BinomialDistribution,
    DiscreteDistribution,
    Distribution,
    GeometricDistribution,
    PointDistribution,
    UniformDistribution,
    UniformIntDistribution,
)
from .syntax.ast import (
    And,
    Assign,
    Atom,
    BoolConst,
    BoolExpr,
    If,
    NondetIf,
    Not,
    Or,
    ProbIf,
    Program,
    Seq,
    Skip,
    Stmt,
    Tick,
    While,
)

if TYPE_CHECKING:
    from .batch.spec import AnalysisRequest

__all__ = [
    "CacheStats",
    "ResultCache",
    "cache_salt",
    "canonical_program",
    "default_cache_dir",
    "request_fingerprint",
    "request_key",
]

#: On-disk entry schema; bumping it invalidates every existing entry.
#: v7: reports are ``repro-report/v6`` shaped (``invariant_domain``) and
#: fingerprints carry the invariant domain — octagon-generated Gamma
#: rows change the LP, so octagon bounds must never alias interval ones.
#: v6: fingerprints carry the simulation engine — ``auto``/``vectorized``
#: draw a different RNG stream than ``reference`` for the same seed, so
#: their sim statistics must never alias.
#: v5: reports are ``repro-report/v5`` shaped (``diagnostics``) and
#: fingerprints carry the ``check`` mode — a warn-mode report embeds
#: lint findings, so it must never alias a check-off entry.
#: v4: reports are ``repro-report/v4`` shaped (``attempts``) — cached
#: entries always carry ``attempts=1``; crash-retry accounting belongs
#: to the run that solved, never to later hits.
#: v3: reports are ``repro-report/v3`` shaped (tail bounds) and
#: fingerprints carry the tail-analysis settings.
#: v2: reports are ``repro-report/v2`` shaped and fingerprints carry
#: the resolved solver backend id + invariant policy.
ENTRY_SCHEMA = "repro-cache/v7"


@functools.cache
def cache_salt() -> str:
    """Code + solver version salt baked into every key and entry.

    Any component change means previously cached bounds may no longer
    be reproducible, so entries written under a different salt are
    treated as misses (and garbage-collected on read).  Computed once
    per process; the SciPy version comes from the installed
    distribution's metadata (the same string as ``scipy.__version__``),
    so fingerprinting never imports SciPy or NumPy.
    """
    from importlib.metadata import PackageNotFoundError, version

    from . import __version__

    try:
        solver = f"scipy-{version('scipy')}"
    except PackageNotFoundError:  # pragma: no cover - scipy is a hard dep in practice
        solver = "no-solver"
    return f"{ENTRY_SCHEMA}|repro={__version__}|{solver}"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro`` (~/.cache)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


# ---------------------------------------------------------------------------
# Canonical program serialization
# ---------------------------------------------------------------------------
#
# The key must be (a) formatting-insensitive — two sources that parse to
# the same AST share an entry — and (b) exact: the pretty-printer's %g
# float formatting would collapse distinct probabilities, so the AST is
# serialized directly with repr-precision floats (json round-trips
# Python floats exactly).  Declaration order is preserved: variable
# order feeds the template/LP column order, and the cache promises
# bitwise-identical bounds, not just mathematically equal ones.


def _canonical_poly(poly) -> List[Any]:
    return [
        [[list(pair) for pair in mono.powers], float(poly.coeff(mono))]
        for mono in sorted(poly.monomials())
    ]


def _canonical_cond(cond: BoolExpr) -> List[Any]:
    if isinstance(cond, Atom):
        return ["atom", bool(cond.strict), _canonical_poly(cond.poly)]
    if isinstance(cond, BoolConst):
        return ["const", bool(cond.value)]
    if isinstance(cond, And):
        return ["and", _canonical_cond(cond.left), _canonical_cond(cond.right)]
    if isinstance(cond, Or):
        return ["or", _canonical_cond(cond.left), _canonical_cond(cond.right)]
    if isinstance(cond, Not):
        return ["not", _canonical_cond(cond.operand)]
    raise TypeError(f"unknown condition node {type(cond).__name__}")


def _canonical_stmt(stmt: Stmt) -> List[Any]:
    if isinstance(stmt, Skip):
        return ["skip"]
    if isinstance(stmt, Assign):
        return ["assign", stmt.var, _canonical_poly(stmt.expr)]
    if isinstance(stmt, Tick):
        return ["tick", _canonical_poly(stmt.cost)]
    if isinstance(stmt, Seq):
        return ["seq", [_canonical_stmt(s) for s in stmt.stmts]]
    if isinstance(stmt, If):
        return [
            "if",
            _canonical_cond(stmt.cond),
            _canonical_stmt(stmt.then_branch),
            _canonical_stmt(stmt.else_branch),
        ]
    if isinstance(stmt, ProbIf):
        return [
            "prob-if",
            float(stmt.prob),
            _canonical_stmt(stmt.then_branch),
            _canonical_stmt(stmt.else_branch),
        ]
    if isinstance(stmt, NondetIf):
        return ["nondet-if", _canonical_stmt(stmt.then_branch), _canonical_stmt(stmt.else_branch)]
    if isinstance(stmt, While):
        return ["while", _canonical_cond(stmt.cond), _canonical_stmt(stmt.body)]
    raise TypeError(f"unknown statement node {type(stmt).__name__}")


def _canonical_dist(dist: Distribution) -> List[Any]:
    # Subclasses of DiscreteDistribution first: their defining
    # parameters are exact where the expanded value table may not be.
    if isinstance(dist, BernoulliDistribution):
        return ["bernoulli", float(dist.p)]
    if isinstance(dist, BinomialDistribution):
        return ["binomial", int(dist.n), float(dist.p)]
    if isinstance(dist, UniformIntDistribution):
        return ["unifint", int(dist.a), int(dist.b)]
    if isinstance(dist, PointDistribution):
        return ["point", float(dist.value)]
    if isinstance(dist, DiscreteDistribution):
        return ["discrete", list(dist.values), list(dist.probs)]
    if isinstance(dist, UniformDistribution):
        return ["uniform", float(dist.a), float(dist.b)]
    if isinstance(dist, GeometricDistribution):
        return ["geometric", float(dist.p)]
    return ["repr", repr(dist)]


def canonical_program(program: Program) -> Dict[str, Any]:
    """JSON-able canonical form of a parsed program (exact floats)."""
    return {
        "pvars": list(program.pvars),
        "rvars": [[name, _canonical_dist(dist)] for name, dist in program.rvars.items()],
        "body": _canonical_stmt(program.body),
    }


#: source text -> serialized canonical program, so repeated requests
#: against the same benchmark pay the parse exactly once per process.
#: Bounded: a long-lived ``repro serve`` fed many distinct inline
#: sources must not grow without limit (registry traffic uses ~25 keys).
#: Guarded by a lock: concurrent service handler threads fingerprint
#: simultaneously, and the len-check / clear / insert sequence is a
#: read-modify-write that must not interleave.
_CANONICAL_PROGRAM_MEMO: Dict[str, str] = {}
_CANONICAL_PROGRAM_MEMO_MAX = 1024
_CANONICAL_PROGRAM_MEMO_LOCK = threading.Lock()


def _canonical_program_text(bench) -> str:
    with _CANONICAL_PROGRAM_MEMO_LOCK:
        text = _CANONICAL_PROGRAM_MEMO.get(bench.source)
    if text is None:
        text = json.dumps(canonical_program(bench.program), sort_keys=True, separators=(",", ":"))
        with _CANONICAL_PROGRAM_MEMO_LOCK:
            if len(_CANONICAL_PROGRAM_MEMO) >= _CANONICAL_PROGRAM_MEMO_MAX:
                _CANONICAL_PROGRAM_MEMO.clear()
            _CANONICAL_PROGRAM_MEMO[bench.source] = text
    return text


# ---------------------------------------------------------------------------
# Request fingerprint
# ---------------------------------------------------------------------------


def request_fingerprint(request: "AnalysisRequest", resolved=None) -> Dict[str, Any]:
    """Everything that determines the analysis outcome, canonicalized.

    Reads the triple :func:`repro.programs.resolve` makes of the
    request (``resolved``, when the caller already holds it, else
    resolved here), as the batch engine does: the registry benchmark
    (or inline source) after the ``nondet_prob`` transformation, the
    effective initial valuation, the resolved invariant annotations
    (including init-dependent ones), the degree plan, the soundness
    mode and the simulation settings.  Raises for requests that cannot
    be resolved (unknown benchmark, parse error) — callers treat that
    as "uncacheable" and fall through to execution, which will surface
    the same failure as a structured report.
    """
    from .analysis.bounds import degree_plan
    from .core.lp import SOLVER_ID
    from .programs import resolve

    bench, init, settings = resolved if resolved is not None else resolve(request)
    invariants = {str(label): cond for label, cond in bench.anchored_invariants(init).items()}

    # The request validated its settings at construction, so they are
    # already JSON-plain and correctly typed.
    simulate: Optional[Dict[str, Any]] = None
    if request.simulate_runs is not None:
        simulate = {
            "runs": request.simulate_runs,
            "seed": request.simulate_seed,
            "max_steps": request.simulate_max_steps,
            "nondet": request.simulate_nondet,
            "engine": request.simulate_engine,
        }
    tails = None
    if request.tails:
        tails = {"horizon": request.tail_horizon, "probes": request.tail_probes}
        if simulate is not None:
            # Such reports carry empirical tail frequencies (``freq``);
            # entries stored before they did must not be served.
            simulate["tail_freq"] = True

    return {
        "salt": cache_salt(),
        "program": _canonical_program_text(bench),
        "invariants": invariants,
        "auto_invariants": request.auto_invariants,
        "invariant_domain": request.invariant_domain,
        "init": {var: float(value) for var, value in init.items()},
        "degrees": degree_plan(settings),
        "mode": settings.mode,
        "compute_lower": request.compute_lower,
        "max_multiplicands": request.max_multiplicands,
        # Kept so keys written before the solver became fixed still hit.
        "solver": SOLVER_ID,
        "simulate": simulate,
        "tails": tails,
        # Lint mode changes report content (warn embeds diagnostics)
        # and, in strict mode, the outcome itself.
        "check": request.check,
    }


def request_key(request: "AnalysisRequest", resolved=None) -> str:
    """SHA-256 hex digest of the canonical request fingerprint."""
    payload = json.dumps(
        request_fingerprint(request, resolved), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Point-in-time cache counters (process-local) + disk census."""

    root: str
    hits: int
    misses: int
    stores: int
    entries: int
    size_bytes: int
    memory_entries: int

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class ResultCache:
    """Disk-backed, content-addressed report store with an LRU front.

    Thread-safe (the HTTP service shares one instance across handler
    threads) and multi-process-safe for writes (atomic replace); batch
    pool workers each hold their own instance over the same root.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        max_memory_entries: int = 256,
    ):
        self.root = Path(root) if root is not None else Path(default_cache_dir())
        self.max_memory_entries = max(0, int(max_memory_entries))
        #: key -> serialized report JSON.  Strings (not report objects)
        #: so every hit reconstructs a fresh AnalysisReport — callers
        #: can mutate what they get back without corrupting the cache.
        self._memory: "OrderedDict[str, str]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0

    # -- keys -----------------------------------------------------------

    def request_key(self, request, resolved=None) -> Optional[str]:
        """Key for ``request`` (``resolved``: its resolved triple, when
        the caller holds it), or ``None`` when it cannot be resolved
        (unknown benchmark, unparseable source): such requests bypass
        the cache and fail identically through the engine."""
        try:
            return request_key(request, resolved)
        except Exception:
            return None

    # -- lookup / store -------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def lookup(self, key: str):
        """The cached report for ``key``, or ``None`` (counts hit/miss)."""
        from .batch.spec import AnalysisReport

        with self._lock:
            text = self._memory.get(key)
            if text is not None:
                self._memory.move_to_end(key)
        if text is None:
            text = self._read_disk(key)
            if text is not None:
                self._remember(key, text)
        report = None
        if text is not None:
            try:
                report = AnalysisReport.from_dict(json.loads(text))
            except ValueError:
                # Valid JSON that is not a readable report (hand-mangled
                # entry, or an incompatible future writer sharing the
                # root): self-heal exactly like a torn entry — forget,
                # delete, recount as a miss.
                with self._lock:
                    self._memory.pop(key, None)
                try:
                    self._path(key).unlink()
                except OSError:
                    pass
        with self._lock:
            if report is None:
                self._misses += 1
                return None
            self._hits += 1
        return report

    def store(self, key: str, report) -> bool:
        """Persist ``report`` under ``key`` (atomic). Never raises —
        a read-only or full filesystem degrades to a cold cache."""
        entry = {
            "schema": ENTRY_SCHEMA,
            "salt": cache_salt(),
            "key": key,
            "name": report.name,
            "created": time.time(),
            "report": report.to_dict(),
        }
        # No sort_keys anywhere on the report payload: byte-identical
        # warm re-runs require preserving the engine's dict key order
        # (e.g. the init valuation) through the JSON round trip.
        text = json.dumps(entry["report"], separators=(",", ":"))
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(self.root), prefix="tmp-", suffix=".part")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(entry, handle, indent=2)
                    handle.write("\n")
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        from .resilience import faults

        faults.on_cache_store(report.name, self._path(key))
        self._remember(key, text)
        with self._lock:
            self._stores += 1
        return True

    def lookup_for(self, key: str, request, resolved=None):
        """:meth:`lookup` plus presentation restore — the hit path the
        engine and :meth:`get` share.

        ``name``/``tag`` are excluded from the key, so the stored report
        carries whatever the *storing* request displayed; a hit resets
        them to what ``execute_request`` would have produced for
        ``request`` (the resolved benchmark name — coin-flip variant
        suffix included — when no explicit name was given, read from
        ``resolved`` as for :meth:`request_key`).
        """
        report = self.lookup(key)
        if report is not None:
            from .programs import resolve

            report.tag, report.name = request.tag, request.name
            if report.name is None:
                # The key was derived, so the request resolves.
                report.name = (resolved or resolve(request))[0].name
        return report

    def get(self, request):
        """Convenience request-level lookup (the engine uses the
        key-based :meth:`lookup_for`/:meth:`store` flow to avoid
        fingerprinting twice).  An unresolvable request bypasses the
        cache entirely — no hit/miss is recorded."""
        key = self.request_key(request)
        if key is None:
            return None
        return self.lookup_for(key, request)

    def put(self, request, report) -> bool:
        key = self.request_key(request)
        if key is None or report.status != "ok":
            return False
        return self.store(key, report)

    # -- internals ------------------------------------------------------

    def _read_disk(self, key: str) -> Optional[str]:
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
        except OSError:
            return None
        except ValueError:
            # Torn or hand-mangled JSON: self-clean like a stale entry.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        stale = (
            not isinstance(entry, dict)
            or entry.get("schema") != ENTRY_SCHEMA
            or entry.get("salt") != cache_salt()
            or not isinstance(entry.get("report"), dict)
        )
        if stale:
            # Self-clean: a corrupt or outdated entry will never hit again.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return json.dumps(entry["report"], separators=(",", ":"))

    def _remember(self, key: str, text: str) -> None:
        if self.max_memory_entries == 0:
            return
        with self._lock:
            self._memory[key] = text
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)

    # -- accounting -----------------------------------------------------

    def record(self, hit: bool, stored: bool = False) -> None:
        """Fold a pool worker's hit/miss/store into this (parent)
        instance, so ``stats()`` reflects the whole batch."""
        with self._lock:
            if hit:
                self._hits += 1
            else:
                self._misses += 1
            if stored:
                self._stores += 1

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def worker_config(self) -> Dict[str, Any]:
        """Picklable recipe for per-process clones over the same root."""
        return {"root": str(self.root), "max_memory_entries": self.max_memory_entries}

    def stats(self) -> CacheStats:
        entries = 0
        size = 0
        try:
            for path in self.root.glob("*.json"):
                try:
                    size += path.stat().st_size
                    entries += 1
                except OSError:
                    continue
        except OSError:
            pass
        with self._lock:
            return CacheStats(
                root=str(self.root),
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                entries=entries,
                size_bytes=size,
                memory_entries=len(self._memory),
            )

    def clear(self) -> int:
        """Delete every entry (and stray temp file); returns the count."""
        removed = 0
        try:
            for path in list(self.root.glob("*.json")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
            for path in list(self.root.glob("tmp-*.part")):
                try:
                    path.unlink()
                except OSError:
                    continue
        except OSError:
            pass
        with self._lock:
            self._memory.clear()
        return removed

    def __repr__(self) -> str:
        return f"ResultCache(root={str(self.root)!r}, memory={len(self._memory)})"
