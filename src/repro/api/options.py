"""The one typed options object of the public API.

Every front end used to re-thread its own copy of the degree / mode /
invariant / simulation / timeout kwarg sprawl.  :class:`AnalysisOptions`
consolidates all of it: an immutable, validated, JSON-round-trippable
record of *how* to analyze — the *what* (a benchmark name, source text,
a :class:`~repro.programs.Benchmark`) stays separate and is supplied to
:meth:`repro.api.Analyzer.analyze` next to it.

Layering (spec-file ``defaults`` + per-task overrides, session options
+ per-call overrides) goes through :meth:`AnalysisOptions.merge`, which
takes mappings/keywords of *explicitly set* fields — never a second
options object, whose untouched defaults would be indistinguishable
from deliberate choices.
"""

from __future__ import annotations

import json
from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Union

from ..batch.spec import DEFAULT_MAX_DEGREE, AnalysisRequest
from ..resilience import RetryPolicy

__all__ = ["AnalysisOptions"]


@dataclass(frozen=True)
class AnalysisOptions:
    """Everything that configures one expected-cost analysis.

    All fields are JSON-plain and validated at construction.  Instances
    are frozen: derive variations with :meth:`merge`.
    """

    #: Template degree plan: ``None`` (the benchmark's default, 2 for
    #: inline source), a fixed positive int, or ``"auto"`` — escalate
    #: d = 1..``max_degree`` until every requested bound is feasible.
    degree: Union[int, str, None] = None
    #: Ceiling for ``degree="auto"`` escalation.
    max_degree: int = DEFAULT_MAX_DEGREE
    #: Soundness regime: ``None`` (benchmark default / ``"auto"``),
    #: ``"auto"``, ``"signed"`` or ``"nonnegative"``.
    mode: Optional[str] = None
    #: Attempt the PLCS lower bound when the regime admits one.
    compute_lower: bool = True
    #: Handelman multiplicand cap K (``None`` = the degree default).
    max_multiplicands: Optional[int] = None
    #: LP solver backend id (see ``repro.core.solvers``); ``None`` or
    #: ``"auto"`` resolves to the environment default.
    solver: Optional[str] = None
    #: Per-label invariant annotations for inline-source programs
    #: (registry benchmarks carry their own).
    invariants: Optional[Dict[int, str]] = None
    #: Strengthen annotations with automatically generated interval
    #: invariants (the paper uses StInG similarly).
    auto_invariants: bool = True
    #: Abstract domain of the automatic invariant generator:
    #: ``"interval"`` (per-variable boxes) or ``"octagon"`` (relational
    #: ``+-x +-y <= c`` constraints, conjoined into annotated labels
    #: and enabling the REP013/REP014 lint checks).
    invariant_domain: str = "interval"
    #: Initial valuation ``v*``; ``None`` uses the benchmark anchor.
    init: Optional[Dict[str, float]] = None
    #: Replace every ``if *`` by ``if prob(p)`` before analysis (the
    #: Table 5 transformation); ``None`` leaves the program as-is.
    nondet_prob: Optional[float] = None
    #: Monte-Carlo runs to simulate after synthesis (``None`` = none).
    simulate_runs: Optional[int] = None
    simulate_seed: int = 0
    simulate_max_steps: int = 1_000_000
    #: Simulation engine: ``"auto"`` (NumPy batch stepper for large
    #: batches, with transparent fallback), ``"vectorized"`` (force the
    #: batch stepper) or ``"reference"`` (pure-Python loop).
    simulate_engine: str = "auto"
    #: Simulate even a nondeterministic program (default then-branch
    #: scheduler); off because a demonic bound is not comparable to one
    #: fixed policy's statistics.
    simulate_nondet: bool = False
    #: Per-task wall-clock budget in seconds (``status="timeout"``).
    timeout_s: Optional[float] = None
    #: Free-form caller tag, echoed on the report (not fingerprinted).
    tag: Optional[str] = None
    #: Also derive an Azuma–Hoeffding concentration (tail) bound
    #: ``P[cost >= E + t, T <= n] <= exp(-t^2/(2 c^2 n))`` from the
    #: upper certificate (:mod:`repro.analysis.tails`).
    tails: bool = False
    #: Step horizon ``n`` of the tail guarantee; ``None`` uses the
    #: interpreter's default truncation (1e6 steps).
    tail_horizon: Optional[int] = None
    #: Offsets ``t`` to pre-evaluate the tail bound at; ``None`` picks
    #: multiples of the natural scale ``c * sqrt(horizon)``.
    tail_probes: Optional[list] = None
    #: Static lint pass (:mod:`repro.check`) before synthesis:
    #: ``"off"`` skips it, ``"warn"`` attaches diagnostics to the
    #: result/report and proceeds, ``"strict"`` rejects programs with
    #: error-severity findings before any LP work
    #: (``status="rejected"`` reports, :class:`~repro.errors.CheckError`
    #: from :func:`repro.analysis.analyze`).
    check: str = "off"
    #: Crash-retry budget for pool workers that die mid-task
    #: (:class:`repro.resilience.RetryPolicy`, or its ``to_dict``
    #: mapping — coerced); ``None`` uses the engine default (one retry
    #: with jittered backoff).  A scheduling knob like ``timeout_s``:
    #: never part of the cache fingerprint.
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        # Normalize the mapping fields to plain, correctly-typed dicts
        # (JSON object keys arrive as strings) before validating.
        if self.invariants is not None:
            try:
                coerced = {int(label): str(cond) for label, cond in dict(self.invariants).items()}
            except (TypeError, ValueError):
                raise ValueError(
                    f"invariant labels must be integers, got {sorted(dict(self.invariants))!r}"
                ) from None
            object.__setattr__(self, "invariants", coerced)
        if self.init is not None:
            try:
                object.__setattr__(
                    self, "init", {str(var): float(value) for var, value in dict(self.init).items()}
                )
            except (TypeError, ValueError):
                raise ValueError(f"init values must be numbers, got {self.init!r}") from None
        if self.tail_probes is not None:
            try:
                object.__setattr__(self, "tail_probes", [float(t) for t in self.tail_probes])
            except (TypeError, ValueError):
                raise ValueError(f"tail_probes must be numbers, got {self.tail_probes!r}") from None
        if self.retry is not None:
            object.__setattr__(self, "retry", RetryPolicy.coerce(self.retry))
        self._validate()

    def _validate(self) -> None:
        if self.degree is not None and self.degree != "auto":
            if not isinstance(self.degree, int) or isinstance(self.degree, bool) or self.degree < 1:
                raise ValueError(f"degree must be a positive int or 'auto', got {self.degree!r}")
        if not isinstance(self.max_degree, int) or self.max_degree < 1:
            raise ValueError(f"max_degree must be an int >= 1, got {self.max_degree!r}")
        if self.mode is not None and self.mode not in ("auto", "signed", "nonnegative"):
            raise ValueError(f"mode must be 'auto', 'signed' or 'nonnegative', got {self.mode!r}")
        if self.max_multiplicands is not None and self.max_multiplicands < 1:
            raise ValueError(f"max_multiplicands must be >= 1, got {self.max_multiplicands!r}")
        if self.invariant_domain not in ("interval", "octagon"):
            raise ValueError(
                f"invariant_domain must be 'interval' or 'octagon', got {self.invariant_domain!r}"
            )
        if self.solver is not None and not isinstance(self.solver, str):
            raise ValueError(f"solver must be a backend name string, got {self.solver!r}")
        if self.nondet_prob is not None and not (0.0 <= self.nondet_prob <= 1.0):
            raise ValueError(f"nondet_prob must be in [0, 1], got {self.nondet_prob}")
        if self.simulate_runs is not None and self.simulate_runs <= 0:
            raise ValueError(f"simulate_runs must be positive, got {self.simulate_runs}")
        if self.simulate_max_steps < 1:
            raise ValueError(f"simulate_max_steps must be >= 1, got {self.simulate_max_steps}")
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
            if not isinstance(self.tail_horizon, int) or isinstance(self.tail_horizon, bool) or self.tail_horizon < 1:
                raise ValueError(f"tail_horizon must be an int >= 1, got {self.tail_horizon!r}")
        if self.tail_probes is not None:
            if not self.tail_probes:
                raise ValueError("tail_probes must be a non-empty list of positive offsets")
            if any(t <= 0 for t in self.tail_probes):
                raise ValueError(f"tail_probes must be positive, got {self.tail_probes!r}")
        if self.check not in ("off", "warn", "strict"):
            raise ValueError(f"check must be 'off', 'warn' or 'strict', got {self.check!r}")

    # -- layering -------------------------------------------------------

    def merge(self, *layers: Mapping[str, Any], **overrides: Any) -> "AnalysisOptions":
        """A new options object with later layers winning.

        ``layers`` are mappings of explicitly-set fields (e.g. a spec
        file's ``defaults`` then a task object); ``overrides`` apply
        last.  Unknown keys raise, and the merged result re-validates::

            AnalysisOptions().merge(spec["defaults"], task, degree=3)
        """
        known = {f.name for f in fields(self)}
        updates: Dict[str, Any] = {}
        for layer in layers:
            if not isinstance(layer, _MappingABC):
                raise TypeError(
                    "merge() layers must be mappings of option fields; to layer two "
                    "AnalysisOptions, pass the explicit fields as a dict "
                    f"(got {type(layer).__name__})"
                )
            updates.update(layer)
        updates.update(overrides)
        unknown = set(updates) - known
        if unknown:
            raise ValueError(f"unknown option field(s): {sorted(unknown)}")
        return replace(self, **updates)

    # -- JSON -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-plain dict of every field (round-trips via
        :meth:`from_dict`)."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, RetryPolicy):
                value = value.to_dict()
            elif isinstance(value, dict):
                value = dict(value)
            elif isinstance(value, list):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisOptions":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown option field(s): {sorted(unknown)}")
        return cls(**dict(data))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisOptions":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"options JSON must be an object, got {type(data).__name__}")
        return cls.from_dict(data)

    def degree_plan(self, default: Optional[int] = None) -> list:
        """The degrees a caller should attempt, in order
        (:func:`repro.analysis.bounds.degree_plan`)."""
        from ..analysis.bounds import degree_plan

        return degree_plan(self, default)

    # -- bridging to the engine -----------------------------------------

    def to_request(
        self,
        benchmark: Optional[str] = None,
        source: Optional[str] = None,
        name: Optional[str] = None,
    ) -> AnalysisRequest:
        """The engine/cache work unit for these options applied to one
        program (exactly one of ``benchmark``/``source``)."""
        request = AnalysisRequest(
            benchmark=benchmark,
            source=source,
            name=name,
            init=dict(self.init) if self.init is not None else None,
            invariants=dict(self.invariants) if self.invariants is not None else None,
            degree=self.degree,
            max_degree=self.max_degree,
            mode=self.mode,
            compute_lower=self.compute_lower,
            max_multiplicands=self.max_multiplicands,
            solver=self.solver,
            auto_invariants=self.auto_invariants,
            invariant_domain=self.invariant_domain,
            nondet_prob=self.nondet_prob,
            simulate_runs=self.simulate_runs,
            simulate_seed=self.simulate_seed,
            simulate_max_steps=self.simulate_max_steps,
            simulate_engine=self.simulate_engine,
            simulate_nondet=self.simulate_nondet,
            timeout_s=self.timeout_s,
            tag=self.tag,
            tails=self.tails,
            tail_horizon=self.tail_horizon,
            tail_probes=list(self.tail_probes) if self.tail_probes is not None else None,
            check=self.check,
            retry=self.retry.to_dict() if self.retry is not None else None,
        )
        request.validate()
        return request

    @classmethod
    def from_request(cls, request: AnalysisRequest) -> "AnalysisOptions":
        """The options embedded in an engine request (drops the program
        identity — ``benchmark``/``source``/``name``)."""
        return cls(
            degree=request.degree,
            max_degree=request.max_degree,
            mode=request.mode,
            compute_lower=request.compute_lower,
            max_multiplicands=request.max_multiplicands,
            solver=request.solver,
            invariants=dict(request.invariants) if request.invariants is not None else None,
            auto_invariants=request.auto_invariants,
            invariant_domain=request.invariant_domain,
            init=dict(request.init) if request.init is not None else None,
            nondet_prob=request.nondet_prob,
            simulate_runs=request.simulate_runs,
            simulate_seed=request.simulate_seed,
            simulate_max_steps=request.simulate_max_steps,
            simulate_engine=request.simulate_engine,
            simulate_nondet=request.simulate_nondet,
            timeout_s=request.timeout_s,
            tag=request.tag,
            tails=request.tails,
            tail_horizon=request.tail_horizon,
            tail_probes=list(request.tail_probes) if request.tail_probes is not None else None,
            check=request.check,
            retry=request.retry,
        )
