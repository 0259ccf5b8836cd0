"""JSON-serializable work units of the batch-analysis engine.

An :class:`AnalysisRequest` describes one analysis task — *which*
program (a registry benchmark name or inline source text), at which
initial valuation, with which synthesis knobs — and an
:class:`AnalysisReport` is the structured, process-boundary-safe result
the engine hands back.  Both round-trip through plain dicts/JSON so
they can cross a process pool, be written to disk, and be diffed across
runs.

A *spec file* (``python -m repro batch SPEC.json``) is either a JSON
list of request objects or ``{"defaults": {...}, "tasks": [...]}``.
Tasks may also name a whole suite::

    {"suite": "table2"}                      # every Table 2 benchmark
    {"suite": "table5", "all_inits": true}   # Table 5 variants, all v0
    {"suite": "table6"}                      # the extension families

:func:`requests_from_spec` expands suites into concrete requests.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Union

__all__ = [
    "AnalysisReport",
    "AnalysisRequest",
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_V1",
    "REPORT_SCHEMA_V2",
    "REPORT_SCHEMA_V3",
    "REPORT_SCHEMA_V4",
    "REPORT_SCHEMA_V5",
    "load_spec",
    "requests_from_spec",
]

#: Degree ceiling for ``degree="auto"`` escalation unless overridden.
DEFAULT_MAX_DEGREE = 4

#: Canonical report schema.  v6 added ``invariant_domain`` (the abstract
#: domain the automatic invariant generator ran in — ``"interval"`` or
#: ``"octagon"``); v5 added ``diagnostics`` (findings of the
#: static lint pass, ``repro.check``) and the ``status="rejected"``
#: terminal state (strict-mode checks refused the program before any LP
#: work); v4 added ``attempts`` (executions consumed under the
#: crash-retry budget of :mod:`repro.resilience`) and the
#: ``status="crashed"`` terminal state; v3 added ``tail`` (the
#: Azuma–Hoeffding concentration bound of ``repro.analysis.tails``);
#: v2 added ``lower_skipped`` (why no PLCS lower bound was produced)
#: and ``solver`` (the resolved LP backend).
REPORT_SCHEMA = "repro-report/v6"
#: The pre-``repro.api`` shape; :meth:`AnalysisReport.from_dict` reads
#: every schema, :meth:`AnalysisReport.to_v1_dict` writes this one.
REPORT_SCHEMA_V1 = "repro-report/v1"
#: The pre-tail-bound shape; :meth:`AnalysisReport.from_dict` is
#: lenient (a v2 dict simply has no ``tail``), and
#: :meth:`AnalysisReport.to_v2_dict` writes it.
REPORT_SCHEMA_V2 = "repro-report/v2"
#: The pre-resilience shape (no ``attempts``);
#: :meth:`AnalysisReport.to_v3_dict` writes it.
REPORT_SCHEMA_V3 = "repro-report/v3"
#: The pre-lint shape (no ``diagnostics``);
#: :meth:`AnalysisReport.to_v4_dict` writes it.
REPORT_SCHEMA_V4 = "repro-report/v4"
#: The pre-relational-invariants shape (no ``invariant_domain``);
#: :meth:`AnalysisReport.to_v5_dict` writes it.
REPORT_SCHEMA_V5 = "repro-report/v5"

#: Fields present in v2 report dicts but not v1 ones.
_REPORT_V2_FIELDS = ("lower_skipped", "solver")
#: Fields present in v3 report dicts but not v2 ones.
_REPORT_V3_FIELDS = ("tail",)
#: Fields present in v4 report dicts but not v3 ones.
_REPORT_V4_FIELDS = ("attempts",)
#: Fields present in v5 report dicts but not v4 ones.
_REPORT_V5_FIELDS = ("diagnostics",)
#: Fields present in v6 report dicts but not v5 ones.
_REPORT_V6_FIELDS = ("invariant_domain",)
#: The fields each schema added over its predecessor, v2 first.
_REPORT_FIELDS_ADDED = (
    _REPORT_V2_FIELDS,
    _REPORT_V3_FIELDS,
    _REPORT_V4_FIELDS,
    _REPORT_V5_FIELDS,
    _REPORT_V6_FIELDS,
)


def _copy_json(value: Any) -> Any:
    """A copy of a JSON value whose dicts and lists are all fresh."""
    if isinstance(value, dict):
        return {key: _copy_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_json(item) for item in value]
    return value


#: Suites a spec task may name.  ``table5`` is the Table 3 set with
#: nondeterminism replaced by a fair coin (the paper's Table 5 setup).
_SUITES = ("table2", "table3", "table5", "table6", "all")


@dataclass
class AnalysisRequest:
    """One batch task: a program + valuation + synthesis settings.

    Exactly one of ``benchmark`` (registry name) and ``source`` (inline
    program text) must be set.  All fields are JSON-plain.
    """

    #: Registry benchmark name (``repro.programs.get_benchmark``).
    benchmark: Optional[str] = None
    #: Inline program source in the paper's surface syntax.
    source: Optional[str] = None
    #: Display name; defaults to the benchmark name or ``"<source>"``.
    name: Optional[str] = None
    #: Initial valuation; ``None`` uses the benchmark's anchor.
    init: Optional[Dict[str, float]] = None
    #: Per-label invariants.  For ``source`` requests these are the only
    #: annotations; for ``benchmark`` requests a non-``None`` value
    #: *overrides* the registry annotations (``{}`` analyses the
    #: benchmark with none — useful with ``invariant_domain="octagon"``).
    #: Keys may be ints or numeric strings (JSON).
    invariants: Optional[Dict[int, str]] = None
    #: Template degree: ``None`` (benchmark default / 2), a fixed int,
    #: or ``"auto"`` — escalate d = 1, 2, ... ``max_degree`` until the
    #: requested bounds are feasible (minimal-degree selection, as in
    #: the paper's experiments).
    degree: Union[int, str, None] = None
    #: Ceiling for ``degree="auto"``.
    max_degree: int = DEFAULT_MAX_DEGREE
    #: Soundness regime: ``None`` (benchmark default / "auto"),
    #: "auto", "signed" or "nonnegative".
    mode: Optional[str] = None
    compute_lower: bool = True
    max_multiplicands: Optional[int] = None
    #: LP solver backend id (``repro.core.solvers``); ``None``/"auto"
    #: resolves to the environment default.  The *resolved* id is part
    #: of the cache fingerprint, so backends never alias entries.
    solver: Optional[str] = None
    #: Strengthen annotations with automatically generated interval
    #: invariants (the paper uses StInG similarly); part of the cache
    #: fingerprint because it changes the LP.
    auto_invariants: bool = True
    #: Abstract domain of the automatic invariant generator:
    #: ``"interval"`` (per-variable bounds; the historical default) or
    #: ``"octagon"`` (relational ``+/-x +/-y <= c`` constraints, strong
    #: enough to recover most hand annotations).  Part of the cache
    #: fingerprint because it changes the Gamma rows and hence the LP.
    invariant_domain: str = "interval"
    #: Replace every ``if *`` by ``if prob(p)`` before analysis (the
    #: Table 5 transformation); ``None`` leaves the program as-is.
    nondet_prob: Optional[float] = None
    #: Monte-Carlo runs to simulate after synthesis (omitted when
    #: ``None`` or when the program is nondeterministic).
    simulate_runs: Optional[int] = None
    simulate_seed: int = 0
    simulate_max_steps: int = 1_000_000
    #: Simulation engine: ``"auto"`` (vectorized NumPy batch stepper for
    #: large batches, reference loop otherwise), ``"vectorized"`` or
    #: ``"reference"``.  Part of the cache fingerprint because the two
    #: engines draw different RNG streams for the same seed.
    simulate_engine: str = "auto"
    #: Simulate even a nondeterministic program (under the default
    #: then-branch scheduler); off by default because a demonic bound
    #: is not comparable to one fixed policy's statistics.
    simulate_nondet: bool = False
    #: Per-task wall-clock budget in seconds; exceeding it yields a
    #: report with ``status="timeout"`` instead of killing the batch.
    #: Enforced via SIGALRM on main threads and via the cooperative
    #: deadline of :mod:`repro.deadline` everywhere else (service
    #: handler threads included).
    timeout_s: Optional[float] = None
    #: Crash-retry budget as a JSON-plain
    #: :meth:`repro.resilience.RetryPolicy.to_dict` mapping; ``None``
    #: uses the engine default (one retry).  Applies to *worker deaths*
    #: only — deterministic errors and timeouts are never retried —
    #: and, like ``timeout_s``, is a scheduling knob, not part of the
    #: cache fingerprint.
    retry: Optional[Dict[str, Any]] = None
    #: Free-form caller tag, echoed on the report.
    tag: Optional[str] = None
    #: Derive an Azuma–Hoeffding concentration bound from the upper
    #: certificate (``repro.analysis.tails``); part of the cache
    #: fingerprint together with the horizon and probes.
    tails: bool = False
    #: Step horizon ``n`` of the tail guarantee (default 1e6).
    tail_horizon: Optional[int] = None
    #: Offsets ``t`` to pre-evaluate the tail bound at (default:
    #: multiples of ``c * sqrt(horizon)``).
    tail_probes: Optional[List[float]] = None
    #: Static lint pass (:mod:`repro.check`) before synthesis: ``"off"``
    #: skips it, ``"warn"`` attaches diagnostics to the report and
    #: proceeds, ``"strict"`` yields ``status="rejected"`` on any
    #: error-severity finding without touching the LP.  Part of the
    #: cache fingerprint (it changes the report content and, in strict
    #: mode, the outcome).
    check: str = "off"

    @property
    def display_name(self) -> str:
        return self.name or self.benchmark or "<source>"

    def validate(self) -> None:
        """Raise ``ValueError`` on an ill-formed request."""
        if (self.benchmark is None) == (self.source is None):
            raise ValueError("exactly one of 'benchmark' and 'source' must be set")
        if self.degree is not None and self.degree != "auto":
            if not isinstance(self.degree, int) or isinstance(self.degree, bool) or self.degree < 1:
                raise ValueError(f"degree must be a positive int or 'auto', got {self.degree!r}")
        if self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")
        if self.mode is not None and self.mode not in ("auto", "signed", "nonnegative"):
            raise ValueError(f"mode must be 'auto', 'signed' or 'nonnegative', got {self.mode!r}")
        if self.solver is not None and not isinstance(self.solver, str):
            raise ValueError(f"solver must be a backend name string, got {self.solver!r}")
        if self.invariant_domain not in ("interval", "octagon"):
            raise ValueError(
                f"invariant_domain must be 'interval' or 'octagon', got {self.invariant_domain!r}"
            )
        if self.nondet_prob is not None and not (0.0 <= self.nondet_prob <= 1.0):
            raise ValueError(f"nondet_prob must be in [0, 1], got {self.nondet_prob}")
        if self.simulate_runs is not None and self.simulate_runs <= 0:
            raise ValueError(f"simulate_runs must be positive, got {self.simulate_runs}")
        if self.simulate_engine not in ("auto", "vectorized", "reference"):
            raise ValueError(
                "simulate_engine must be 'auto', 'vectorized' or 'reference', "
                f"got {self.simulate_engine!r}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if not isinstance(self.tails, bool):
            raise ValueError(f"tails must be a bool, got {self.tails!r}")
        if self.tail_horizon is not None:
            if (
                not isinstance(self.tail_horizon, int)
                or isinstance(self.tail_horizon, bool)
                or self.tail_horizon < 1
            ):
                raise ValueError(f"tail_horizon must be an int >= 1, got {self.tail_horizon!r}")
        if self.tail_probes is not None:
            if not self.tail_probes or any(t <= 0 for t in self.tail_probes):
                raise ValueError(
                    f"tail_probes must be a non-empty list of positive offsets, got {self.tail_probes!r}"
                )
        if self.check not in ("off", "warn", "strict"):
            raise ValueError(f"check must be 'off', 'warn' or 'strict', got {self.check!r}")
        if self.retry is not None:
            from ..resilience import RetryPolicy

            if not isinstance(self.retry, Mapping):
                raise ValueError(f"retry must be a policy mapping, got {self.retry!r}")
            RetryPolicy.from_dict(self.retry)  # raises ValueError when ill-formed

    def retry_policy(self):
        """The request's :class:`repro.resilience.RetryPolicy`, or the
        engine default when the field is unset."""
        from ..resilience import DEFAULT_RETRY_POLICY, RetryPolicy

        if self.retry is None:
            return DEFAULT_RETRY_POLICY
        return RetryPolicy.from_dict(self.retry)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def for_benchmark(cls, bench, init: Optional[Mapping[str, float]] = None, **kwargs) -> "AnalysisRequest":
        """Build a request for a :class:`repro.programs.Benchmark` object.

        Registry benchmarks are referenced by name (workers re-resolve
        them, keeping init-dependent invariants and all metadata).  An
        ad-hoc benchmark object (e.g. a modified copy) is embedded as
        source text, with its invariants resolved to plain strings for
        the given valuation so the request stays JSON-serializable.
        """
        from ..programs import get_benchmark

        try:
            registered = get_benchmark(bench.name) is bench
        except KeyError:
            registered = False
        resolved_init = dict(init) if init is not None else None
        if registered:
            return cls(benchmark=bench.name, init=resolved_init, **kwargs)

        anchor = resolved_init if resolved_init is not None else dict(bench.init)
        invariants = dict(bench.invariants)
        if bench.init_invariants is not None:
            for label, cond in bench.init_invariants(dict(anchor)).items():
                if label in invariants:
                    invariants[label] = f"({invariants[label]}) and ({cond})"
                else:
                    invariants[label] = cond
        kwargs.setdefault("degree", bench.degree)
        kwargs.setdefault("mode", bench.mode)
        return cls(
            source=bench.source,
            name=bench.name,
            init=dict(anchor),
            invariants=invariants,
            **kwargs,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisRequest":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - set of names
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown request field(s): {sorted(unknown)}")
        payload = dict(data)
        if payload.get("invariants") is not None:
            # JSON object keys are strings; invariant labels are ints.
            try:
                payload["invariants"] = {
                    int(label): cond for label, cond in payload["invariants"].items()
                }
            except (TypeError, ValueError):
                raise ValueError(
                    f"invariant labels must be integers, got {sorted(payload['invariants'])!r}"
                ) from None
        if payload.get("init") is not None:
            payload["init"] = {var: float(value) for var, value in payload["init"].items()}
        if payload.get("tail_probes") is not None:
            try:
                payload["tail_probes"] = [float(t) for t in payload["tail_probes"]]
            except (TypeError, ValueError):
                raise ValueError(
                    f"tail_probes must be numbers, got {payload['tail_probes']!r}"
                ) from None
        return cls(**payload)


@dataclass
class AnalysisReport:
    """Structured outcome of one :class:`AnalysisRequest`.

    ``status`` is ``"ok"`` (analysis ran; individual bounds may still
    be missing — see ``warnings``), ``"error"`` (an exception, captured
    in ``error``), ``"timeout"`` (the per-task budget expired),
    ``"crashed"`` (the worker process died — SIGKILL, segfault — on
    every attempt the :class:`repro.resilience.RetryPolicy` budget
    allowed; ``error`` carries the death detail) or ``"rejected"``
    (strict-mode static checks refused the program before any LP work;
    ``diagnostics`` carries the findings and ``error`` a one-line
    summary).
    """

    name: str
    status: str
    init: Dict[str, float] = field(default_factory=dict)
    mode: Optional[str] = None
    #: Template degree the reported bounds were synthesized at.
    degree: Optional[int] = None
    #: All degrees attempted (> 1 entry only for ``degree="auto"``).
    degrees_tried: List[int] = field(default_factory=list)
    upper_value: Optional[float] = None
    upper_bound: Optional[str] = None
    upper_runtime: Optional[float] = None
    lower_value: Optional[float] = None
    lower_bound: Optional[str] = None
    lower_runtime: Optional[float] = None
    #: False when the PLCS nondeterministic-policy space was not
    #: exhaustively enumerated (cf. ``BoundResult.policy_enumerated``).
    policy_enumerated: Optional[bool] = None
    sim_mean: Optional[float] = None
    sim_std: Optional[float] = None
    sim_truncated: Optional[int] = None
    sim_termination_rate: Optional[float] = None
    warnings: List[str] = field(default_factory=list)
    #: ``"ExceptionType: message"`` when ``status != "ok"``.
    error: Optional[str] = None
    #: Total wall-clock seconds spent on this task.
    runtime: float = 0.0
    #: Wall-clock seconds of the synthesis phase only (excludes any
    #: Monte-Carlo simulation) — what the paper's timing columns report.
    analysis_runtime: Optional[float] = None
    tag: Optional[str] = None
    # -- v2 fields (``repro-report/v2``) --------------------------------
    #: Why no PLCS lower bound is reported although one was requested
    #: (regime admits none, or synthesis was infeasible at every degree
    #: tried); ``None`` when a lower bound exists or none was asked for.
    lower_skipped: Optional[str] = None
    #: Resolved LP solver backend id the bounds were synthesized with.
    solver: Optional[str] = None
    # -- v3 fields (``repro-report/v3``) --------------------------------
    #: Azuma–Hoeffding concentration bound derived from the upper
    #: certificate (``repro.analysis.TailBound.to_dict()`` shape:
    #: ``method``/``c``/``horizon``/``expected``/``degree``/``refit``/
    #: ``probes``); ``None`` when not requested or unavailable.
    tail: Optional[Dict[str, Any]] = None
    # -- v4 fields (``repro-report/v4``) --------------------------------
    #: Executions this task consumed, crash-requeued attempts included.
    #: ``1`` everywhere worker deaths are impossible (in-process runs,
    #: cache hits); ``> 1`` only when the resilient pool retried the
    #: task after its worker died.
    attempts: int = 1
    # -- v5 fields (``repro-report/v5``) --------------------------------
    #: Findings of the static lint pass, in reading order, as
    #: ``repro.check.Diagnostic.to_dict()`` mappings (``code`` /
    #: ``severity`` / ``message`` / ``label`` / ``line`` / ``column``).
    #: ``None`` when the check did not run (``check="off"``); an empty
    #: list when it ran and the program is clean.
    diagnostics: Optional[List[Dict[str, Any]]] = None
    # -- v6 fields (``repro-report/v6``) --------------------------------
    #: Abstract domain the automatic invariant generator ran in
    #: (``"interval"`` or ``"octagon"``), echoed from the request;
    #: ``None`` on reports read from pre-v6 writers.
    invariant_domain: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        # Field by field rather than ``dataclasses.asdict``: every field
        # already holds plain JSON values, so copying the containers
        # gives the same dict (key order included) at a fraction of the
        # cost of asdict's recursive deep copy, which was the largest
        # Python cost of a service cache-hit reply.
        return {
            "name": self.name,
            "status": self.status,
            "init": dict(self.init),
            "mode": self.mode,
            "degree": self.degree,
            "degrees_tried": list(self.degrees_tried),
            "upper_value": self.upper_value,
            "upper_bound": self.upper_bound,
            "upper_runtime": self.upper_runtime,
            "lower_value": self.lower_value,
            "lower_bound": self.lower_bound,
            "lower_runtime": self.lower_runtime,
            "policy_enumerated": self.policy_enumerated,
            "sim_mean": self.sim_mean,
            "sim_std": self.sim_std,
            "sim_truncated": self.sim_truncated,
            "sim_termination_rate": self.sim_termination_rate,
            "warnings": list(self.warnings),
            "error": self.error,
            "runtime": self.runtime,
            "analysis_runtime": self.analysis_runtime,
            "tag": self.tag,
            "lower_skipped": self.lower_skipped,
            "solver": self.solver,
            "tail": _copy_json(self.tail),
            "attempts": self.attempts,
            "diagnostics": _copy_json(self.diagnostics),
            "invariant_domain": self.invariant_domain,
        }

    def _down_level_dict(self, version: int) -> Dict[str, Any]:
        """:meth:`to_dict` minus every field added after schema v*version*."""
        payload = self.to_dict()
        for added in _REPORT_FIELDS_ADDED[version - 1 :]:
            for fieldname in added:
                del payload[fieldname]
        return payload

    def to_v1_dict(self) -> Dict[str, Any]:
        """The report as a pre-``repro.api`` (v1) dict.

        Drops the v2-and-later fields; everything else — key order
        included — is bitwise what a v1 writer produced, so v1
        consumers (and the golden-table comparisons) keep working
        unchanged.
        """
        return self._down_level_dict(1)

    def to_v2_dict(self) -> Dict[str, Any]:
        """The report as a pre-tail-bound (v2) dict — bitwise what a v2
        writer produced for the same analysis."""
        return self._down_level_dict(2)

    def to_v3_dict(self) -> Dict[str, Any]:
        """The report as a pre-resilience (v3) dict — bitwise what a v3
        writer produced for the same analysis (no ``attempts``)."""
        return self._down_level_dict(3)

    def to_v4_dict(self) -> Dict[str, Any]:
        """The report as a pre-lint (v4) dict — bitwise what a v4 writer
        produced for the same analysis (no ``diagnostics``)."""
        return self._down_level_dict(4)

    def to_v5_dict(self) -> Dict[str, Any]:
        """The report as a pre-relational-invariants (v5) dict — bitwise
        what a v5 writer produced for the same analysis (no
        ``invariant_domain``)."""
        return self._down_level_dict(5)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisReport":
        """Read a v6, v5, v4, v3, v2 *or* v1 report dict (lenient reader:
        fields a previous schema lacks simply default).  An embedded
        ``schema`` marker is accepted and checked; unknown fields are
        rejected rather than dropped."""
        payload = dict(data)
        schema = payload.pop("schema", None)
        if schema is not None and schema not in (
            REPORT_SCHEMA,
            REPORT_SCHEMA_V1,
            REPORT_SCHEMA_V2,
            REPORT_SCHEMA_V3,
            REPORT_SCHEMA_V4,
            REPORT_SCHEMA_V5,
        ):
            raise ValueError(
                f"unsupported report schema {schema!r}; expected {REPORT_SCHEMA!r}, "
                f"{REPORT_SCHEMA_V5!r}, {REPORT_SCHEMA_V4!r}, {REPORT_SCHEMA_V3!r}, "
                f"{REPORT_SCHEMA_V2!r} or {REPORT_SCHEMA_V1!r}"
            )
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown report field(s): {sorted(unknown)}")
        return cls(**payload)


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------


def load_spec(path: str) -> List[AnalysisRequest]:
    """Read a JSON spec file and expand it into concrete requests."""
    with open(path) as handle:
        spec = json.load(handle)
    return requests_from_spec(spec)


def requests_from_spec(spec: Union[List[Any], Mapping[str, Any]]) -> List[AnalysisRequest]:
    """Expand a parsed spec (list of tasks, or ``{defaults, tasks}``).

    Per-task settings win over ``defaults``.  A task with a ``suite``
    key expands to one request per benchmark of that suite; with
    ``"all_inits": true`` it further expands over the benchmark's
    Table 4 valuations.
    """
    if isinstance(spec, Mapping):
        defaults = dict(spec.get("defaults") or {})
        # A suite default would silently *replace* every task's explicit
        # benchmark/source with the suite expansion; reject it up front.
        for forbidden in ("suite", "all_inits"):
            if forbidden in defaults:
                raise ValueError(f"{forbidden!r} is not allowed in defaults; set it per task")
        tasks = spec.get("tasks")
        if tasks is None:
            raise ValueError("spec object must have a 'tasks' list")
    elif isinstance(spec, list):
        defaults, tasks = {}, spec
    else:
        raise ValueError(f"spec must be a list or an object with 'tasks', got {type(spec).__name__}")

    requests: List[AnalysisRequest] = []
    for index, task in enumerate(tasks):
        if not isinstance(task, Mapping):
            raise ValueError(f"task #{index} must be an object, got {type(task).__name__}")
        merged = {**defaults, **task}
        suite = merged.pop("suite", None)
        all_inits = bool(merged.pop("all_inits", False))
        if suite is None:
            request = AnalysisRequest.from_dict(merged)
            request.validate()
            requests.append(request)
            continue
        if suite not in _SUITES:
            raise ValueError(f"task #{index}: unknown suite {suite!r}; known: {_SUITES}")
        if "benchmark" in merged or "source" in merged:
            raise ValueError(
                f"task #{index}: 'suite' conflicts with an explicit 'benchmark'/'source'"
            )
        requests.extend(_expand_suite(suite, merged, all_inits))
    return requests


def _expand_suite(
    suite: str, overrides: Mapping[str, Any], all_inits: bool
) -> List[AnalysisRequest]:
    from ..programs import benchmarks_by_category

    if suite == "all":
        benches = (
            benchmarks_by_category("table2")
            + benchmarks_by_category("table3")
            + benchmarks_by_category("table6")
        )
    elif suite == "table5":
        benches = benchmarks_by_category("table3")
    else:
        benches = benchmarks_by_category(suite)

    requests: List[AnalysisRequest] = []
    for bench in benches:
        inits: List[Optional[Dict[str, float]]]
        if all_inits:
            inits = sorted(bench.all_inits(), key=lambda v: sorted(v.items()))
        else:
            inits = [None]
        for init in inits:
            payload = dict(overrides)
            payload["benchmark"] = bench.name
            if init is not None:
                payload.setdefault("init", dict(init))
            if suite == "table5" and bench.has_nondeterminism:
                payload.setdefault("nondet_prob", 0.5)
            request = AnalysisRequest.from_dict(payload)
            request.validate()
            requests.append(request)
    return requests
