"""The one settings record of the analysis pipeline.

:class:`AnalysisOptions` is an immutable, validated, JSON-round-trippable
record of *how* to analyze — degree plan, soundness regime, invariant
policy, initial valuation, simulation, tails, lint, timeout and retry
settings.  Every field is declared, coerced and validated here, once.
The engine's work unit, :class:`repro.batch.spec.AnalysisRequest`, is
this record plus the *what* — a benchmark name or inline source text —
so the options, the batch engine, the HTTP service and the cache
fingerprint can never disagree about what a setting means.

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
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Union

from ..resilience import RetryPolicy

if TYPE_CHECKING:  # batch.spec subclasses this module's record
    from ..batch.spec import AnalysisRequest

__all__ = ["AnalysisOptions", "CHECK_MODES", "INVARIANT_DOMAINS", "MODES", "SIMULATE_ENGINES"]

#: Degree ceiling for ``degree="auto"`` escalation unless overridden.
DEFAULT_MAX_DEGREE = 4

# The allowed values of the choice fields, named once: the record's
# validation, the CLI's ``choices`` and the public entry points that
# take one of them (``simulate``, ``generate_invariants``) read these.
MODES = ("auto", "signed", "nonnegative")
INVARIANT_DOMAINS = ("interval", "octagon")
SIMULATE_ENGINES = ("auto", "vectorized", "reference")
CHECK_MODES = ("off", "warn", "strict")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _invalid(name: str, expected: str, value: Any) -> ValueError:
    return ValueError(f"{name} must be {expected}, got {value!r}")


def _as_float(value: Any) -> float:
    """``float(value)`` for numbers only — ``"5"`` and ``True`` are not."""
    if isinstance(value, (str, bytes, bool)):
        raise TypeError(value)
    return float(value)


@dataclass(frozen=True)
class AnalysisOptions:
    """Everything that configures one expected-cost analysis.

    All fields are JSON-plain and validated at construction; a bad value
    raises ``ValueError`` naming the field.  Instances are frozen:
    derive variations with :meth:`merge` or ``dataclasses.replace``.
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
    #: Per-label invariant annotations.  For inline source these are the
    #: only annotations; on a registry benchmark name a non-``None``
    #: value *overrides* the registry's (``{}`` drops them).  Keys may
    #: be ints or numeric strings (JSON).
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
    #: Per-task wall-clock budget in seconds (``status="timeout"``);
    #: SIGALRM on main threads, the cooperative :mod:`repro.deadline`
    #: everywhere else (service handler threads included).
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
    tail_probes: Optional[List[float]] = None
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

    #: What error messages call one field of this record.
    _noun = "option"

    def __post_init__(self) -> None:
        # Normalize the container fields to plain, correctly-typed values
        # (JSON object keys arrive as strings) before validating.
        if self.invariants is not None:
            try:
                if not isinstance(self.invariants, _MappingABC):
                    raise TypeError(self.invariants)
                coerced = {int(label): str(cond) for label, cond in self.invariants.items()}
            except (TypeError, ValueError):
                raise ValueError(
                    f"invariants must map integer labels to conditions, got {self.invariants!r}"
                ) from None
            object.__setattr__(self, "invariants", coerced)
        if self.init is not None:
            try:
                coerced = {str(var): _as_float(value) for var, value in self.init.items()}
            except (AttributeError, TypeError, ValueError):
                raise ValueError(f"init must map variables to numbers, got {self.init!r}") from None
            object.__setattr__(self, "init", coerced)
        if self.tail_probes is not None:
            try:
                if not isinstance(self.tail_probes, (list, tuple)):
                    raise TypeError(self.tail_probes)
                probes = [_as_float(t) for t in self.tail_probes]
            except (TypeError, ValueError):
                raise ValueError(
                    f"tail_probes must be a list of numbers, got {self.tail_probes!r}"
                ) from None
            object.__setattr__(self, "tail_probes", probes)
        if self.retry is not None:
            try:
                object.__setattr__(self, "retry", RetryPolicy.coerce(self.retry))
            except TypeError:
                raise ValueError(
                    f"retry must map RetryPolicy fields to numbers, got {self.retry!r}"
                ) from None
        self._validate()

    def _validate(self) -> None:
        degree = self.degree
        if not (degree is None or degree == "auto" or _is_int(degree) and degree >= 1):
            raise _invalid("degree", "a positive int or 'auto'", degree)
        if not (_is_int(self.max_degree) and self.max_degree >= 1):
            raise _invalid("max_degree", "an int >= 1", self.max_degree)
        if self.mode is not None and self.mode not in MODES:
            raise _invalid("mode", f"one of {MODES}", self.mode)
        cap = self.max_multiplicands
        if not (cap is None or _is_int(cap) and cap >= 1):
            raise _invalid("max_multiplicands", "an int >= 1", cap)
        if self.invariant_domain not in INVARIANT_DOMAINS:
            raise _invalid("invariant_domain", f"one of {INVARIANT_DOMAINS}", self.invariant_domain)
        prob = self.nondet_prob
        if not (prob is None or _is_number(prob) and 0.0 <= prob <= 1.0):
            raise _invalid("nondet_prob", "a number in [0, 1]", prob)
        runs = self.simulate_runs
        if not (runs is None or _is_int(runs) and runs >= 1):
            raise _invalid("simulate_runs", "a positive int", runs)
        if not (_is_int(self.simulate_seed) and self.simulate_seed >= 0):
            raise _invalid("simulate_seed", "an int >= 0", self.simulate_seed)
        if not (_is_int(self.simulate_max_steps) and self.simulate_max_steps >= 1):
            raise _invalid("simulate_max_steps", "an int >= 1", self.simulate_max_steps)
        if self.simulate_engine not in SIMULATE_ENGINES:
            raise _invalid("simulate_engine", f"one of {SIMULATE_ENGINES}", self.simulate_engine)
        timeout = self.timeout_s
        if not (timeout is None or _is_number(timeout) and timeout > 0):
            raise _invalid("timeout_s", "a positive number", timeout)
        horizon = self.tail_horizon
        if not (horizon is None or _is_int(horizon) and horizon >= 1):
            raise _invalid("tail_horizon", "an int >= 1", horizon)
        probes = self.tail_probes
        if not (probes is None or probes and all(t > 0 for t in probes)):
            raise _invalid("tail_probes", "a non-empty list of positive offsets", probes)
        if self.check not in CHECK_MODES:
            raise _invalid("check", f"one of {CHECK_MODES}", self.check)
        for name in ("compute_lower", "auto_invariants", "simulate_nondet", "tails"):
            if not isinstance(getattr(self, name), bool):
                raise _invalid(name, "a bool", getattr(self, name))

    # -- layering -------------------------------------------------------

    def merge(self, *layers: Mapping[str, Any], **overrides: Any) -> "AnalysisOptions":
        """A new record with later layers winning.

        ``layers`` are mappings of explicitly-set fields (e.g. a spec
        file's ``defaults`` then a task object); ``overrides`` apply
        last.  Unknown keys raise, and the merged result re-validates::

            AnalysisOptions().merge(spec["defaults"], task, degree=3)
        """
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
        self._reject_unknown(updates)
        return replace(self, **updates)

    # -- JSON -----------------------------------------------------------

    @classmethod
    def _reject_unknown(cls, data: Mapping[str, Any]) -> None:
        unknown = data.keys() - cls.__dataclass_fields__.keys()
        if unknown:
            raise ValueError(f"unknown {cls._noun} field(s): {sorted(unknown)}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-plain dict of every field (round-trips via
        :meth:`from_dict`)."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, RetryPolicy):
                value = value.to_dict()
            elif isinstance(value, (dict, list)):
                value = value.copy()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """The record for a JSON object; unknown keys raise."""
        cls._reject_unknown(data)
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"options JSON must be an object, got {type(data).__name__}")
        return cls.from_dict(data)

    def degree_plan(self, default: Optional[int] = None) -> list:
        """The degrees a caller should attempt, in order
        (:func:`repro.analysis.bounds.degree_plan`)."""
        from ..analysis.bounds import degree_plan

        return degree_plan(self, default)

    # -- the engine's work unit -----------------------------------------

    def _settings(self) -> Dict[str, Any]:
        """The option fields as keyword arguments (identity fields of an
        :class:`~repro.batch.spec.AnalysisRequest` excluded)."""
        return {f.name: getattr(self, f.name) for f in fields(AnalysisOptions)}

    def to_request(
        self,
        benchmark: Optional[str] = None,
        source: Optional[str] = None,
        name: Optional[str] = None,
    ) -> "AnalysisRequest":
        """These options applied to one program (exactly one of
        ``benchmark``/``source``)."""
        from ..batch.spec import AnalysisRequest

        return AnalysisRequest(benchmark=benchmark, source=source, name=name, **self._settings())

    @classmethod
    def from_request(cls, request: "AnalysisRequest") -> "AnalysisOptions":
        """The options of an engine request (drops the program identity
        — ``benchmark``/``source``/``name``)."""
        return cls(**request._settings())
