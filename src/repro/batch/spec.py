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
    {"suite": "tails", "tails": true}        # the tail table's programs

:func:`requests_from_spec` expands suites into concrete requests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..api.options import AnalysisOptions

__all__ = [
    "AnalysisReport",
    "AnalysisRequest",
    "REPORT_SCHEMA",
    "load_spec",
    "requests_from_spec",
    "suite_requests",
]

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
#: and ``solver`` (the LP solver id).
REPORT_SCHEMA = "repro-report/v6"
#: Older schemas :meth:`AnalysisReport.from_dict` still reads (fields a
#: schema lacks simply default); nothing writes them any more.
REPORT_COMPAT_SCHEMAS = tuple(f"repro-report/v{version}" for version in range(1, 6))


def _copy_json(value: Any) -> Any:
    """A copy of a JSON value whose dicts and lists are all fresh."""
    if isinstance(value, dict):
        return {key: _copy_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_json(item) for item in value]
    return value


#: Suites a spec task may name, each with the registry categories it
#: spans.  ``table5`` is the Table 3 set with nondeterminism replaced by
#: a fair coin (the paper's Table 5 setup); ``all`` is the registry in
#: ``all_benchmarks()`` order.  ``tails`` names its benchmarks instead:
#: the tail table's simulable programs whose degree-1 certificates have
#: a constant step-difference bound (bitcoin_mining coin-flipped).
_SUITES = {
    "table2": ("table2",),
    "table3": ("table3",),
    "table5": ("table3",),
    "table6": ("table6",),
    "all": ("table2", "table3", "table6"),
    "tails": (
        "rdwalk", "ber", "bin", "prdwalk", "sprdwalk", "C4B_t13", "random_walk", "bitcoin_mining",
    ),
}


@dataclass(frozen=True)
class AnalysisRequest(AnalysisOptions):
    """One batch task: an :class:`~repro.api.AnalysisOptions` record
    plus the program it applies to.

    Exactly one of ``benchmark`` (registry name) and ``source`` (inline
    program text) must be set; the settings fields, their coercion and
    their validation are the options record's.  Frozen like it: derive
    variations with ``dataclasses.replace``, which re-validates.
    """

    #: Registry benchmark name (``repro.programs.get_benchmark``).
    benchmark: Optional[str] = None
    #: Inline program source in the paper's surface syntax.
    source: Optional[str] = None
    #: Display name; defaults to the benchmark name or ``"<source>"``.
    name: Optional[str] = None

    _noun = "request"

    def __post_init__(self) -> None:
        if (self.benchmark is None) == (self.source is None):
            raise ValueError("exactly one of 'benchmark' and 'source' must be set")
        for field_name in ("benchmark", "source", "name"):
            value = getattr(self, field_name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{field_name} must be a string, got {value!r}")
        super().__post_init__()

    @property
    def display_name(self) -> str:
        return self.name or self.benchmark or "<source>"

    @classmethod
    def for_benchmark(
        cls, bench, options: Optional[AnalysisOptions] = None, **overrides: Any
    ) -> "AnalysisRequest":
        """The request for ``options`` (merged with keyword
        ``overrides``) applied to a :class:`repro.programs.Benchmark`.

        The benchmark brings its own annotations, so ``invariants`` in
        the options is ignored.  Registry benchmarks are referenced by
        name (workers re-resolve them, keeping init-dependent invariants
        and all metadata).  An ad-hoc benchmark object (e.g. a modified
        copy) is embedded as source text, with its invariants resolved
        to plain strings for the given valuation and its own degree and
        mode filling unset ones, so the request stays JSON-serializable.
        """
        from ..programs import get_benchmark, resolve

        options = (options or AnalysisOptions()).merge(overrides, invariants=None)
        try:
            registered = get_benchmark(bench.name) is bench
        except KeyError:
            registered = False
        if registered:
            return options.to_request(benchmark=bench.name)
        _, anchor, settings = resolve(options, bench)
        options = settings.merge(init=anchor, invariants=bench.anchored_invariants(anchor))
        return options.to_request(source=bench.source, name=bench.name)


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
    #: LP solver the bounds were synthesized with
    #: (:data:`repro.core.lp.SOLVER_ID`, always ``"highs"``); ``None``
    #: on reports that never reached synthesis set-up.
    solver: Optional[str] = None
    # -- v3 fields (``repro-report/v3``) --------------------------------
    #: Azuma–Hoeffding concentration bound derived from the upper
    #: certificate (``repro.analysis.TailBound.to_dict()`` shape:
    #: ``method``/``c``/``horizon``/``expected``/``degree``/``refit``/
    #: ``probes``); ``None`` when not requested or unavailable.  When the
    #: request also simulated, truncated at or before the horizon, each
    #: probe carries its empirical frequency ``freq`` next to ``bound``.
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

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisReport":
        """Read a v6, v5, v4, v3, v2 *or* v1 report dict (lenient reader:
        fields a previous schema lacks simply default).  An embedded
        ``schema`` marker is accepted and checked; unknown fields are
        rejected rather than dropped."""
        payload = dict(data)
        schema = payload.pop("schema", None)
        if schema is not None and schema != REPORT_SCHEMA and schema not in REPORT_COMPAT_SCHEMAS:
            raise ValueError(
                f"unsupported report schema {schema!r}; expected {REPORT_SCHEMA!r} "
                f"or one of {list(REPORT_COMPAT_SCHEMAS)}"
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
    key expands by :func:`suite_requests`, the rule the table drivers
    use too; ``"all_inits": true`` expands it further over each
    benchmark's Table 4 valuations.
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
            requests.append(AnalysisRequest.from_dict(merged))
            continue
        if suite not in _SUITES:
            raise ValueError(f"task #{index}: unknown suite {suite!r}; known: {tuple(_SUITES)}")
        if "benchmark" in merged or "source" in merged:
            raise ValueError(
                f"task #{index}: 'suite' conflicts with an explicit 'benchmark'/'source'"
            )
        requests.extend(suite_requests(suite, merged, all_inits))
    return requests


def suite_requests(
    suite: str,
    settings: Optional[Mapping[str, Any]] = None,
    all_inits: bool = False,
    benchmarks: Optional[Sequence[Any]] = None,
) -> List[AnalysisRequest]:
    """The one suite rule: the requests of ``suite`` under ``settings``.

    Per benchmark, ``all_inits`` expands over its Table 4 valuations,
    sorted; ``table5`` and ``tails`` set ``nondet_prob`` 0.5 on a
    nondeterministic program unless the settings set it;
    ``simulate_runs`` is dropped where the program cannot be simulated
    (nondeterministic, not coin-flipped, no ``simulate_nondet``), and
    where it stays an unset ``simulate_max_steps`` is the benchmark's
    ``max_sim_steps``.
    ``benchmarks`` replaces the suite's members by these
    :class:`repro.programs.Benchmark` objects (ad-hoc ones too), which
    bring their own annotations (:meth:`AnalysisRequest.for_benchmark`).
    """
    from ..programs import benchmarks_by_category, get_benchmark

    named = benchmarks is None
    if suite == "tails" and named:
        benchmarks = [get_benchmark(name) for name in _SUITES[suite]]
    elif named:
        benchmarks = [
            bench for category in _SUITES[suite] for bench in benchmarks_by_category(category)
        ]
    requests: List[AnalysisRequest] = []
    for bench in benchmarks:
        base = dict(settings or {})
        if suite in ("table5", "tails") and bench.has_nondeterminism:
            base.setdefault("nondet_prob", 0.5)
        simulable = (
            bench.simulation_supported
            or base.get("nondet_prob") is not None
            or base.get("simulate_nondet")
        )
        if not simulable:
            base.pop("simulate_runs", None)
        elif base.get("simulate_runs") is not None:
            base.setdefault("simulate_max_steps", bench.max_sim_steps)
        inits = sorted(bench.all_inits(), key=lambda v: sorted(v.items())) if all_inits else [None]
        for init in inits:
            payload = dict(base)
            if init is not None:
                payload.setdefault("init", dict(init))
            if named:
                requests.append(AnalysisRequest.from_dict({**payload, "benchmark": bench.name}))
            else:
                requests.append(AnalysisRequest.for_benchmark(bench, **payload))
    return requests
