"""Differential soundness oracle for generated programs.

For each seed the harness runs the full pipeline — strict lint,
``degree="auto"`` synthesis with tail bounds, then a seeded
Monte-Carlo simulation — and checks the one property the paper's
theorems promise and nothing in the unit suite can promise for
*arbitrary* programs:

    upper >= empirical mean >= lower       (within statistical slack)
    Azuma bound >= empirical tail frequency (per probe)

Nondeterministic programs are analyzed demonically as written but
simulated under the fair coin scheduler (``replace_nondet(p=0.5)``),
so only the upper check applies: a demonic PUCS dominates the mean of
*every* scheduler, while the PLCS and tail statements are not
comparable to one fixed policy's statistics.

Outcomes are classified rather than pass/failed: ``rejected`` (strict
lint), ``infeasible`` (no certificate at any degree — not a soundness
statement), ``inconclusive`` (simulation truncated), ``sound``, or
``violation``.  Only ``violation`` indicates a bug.

The :data:`DEFECTS` hooks deliberately corrupt synthesized values
*after* analysis and *before* the checks.  They exist so the test
suite can prove the oracle and the shrinker actually fire — a fuzzer
that never sees a violation is untested on the only path that
matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import (
    CONSISTENCY_TOL,
    CheckError,
    DegreeError,
    InvariantError,
    NonLinearError,
    SynthesisError,
)
from ..semantics.cfg import build_cfg
from ..semantics.interpreter import SimulationStats, simulate
from ..syntax.ast import Program
from ..syntax.pretty import pretty
from ..syntax.transform import replace_nondet
from .generator import GenConfig, GeneratedProgram, generate

__all__ = ["CLASSIFICATIONS", "DEFECTS", "FuzzOutcome", "FuzzRun", "Harness"]

#: Outcome classes, from "never even analyzed" to "soundness bug".
CLASSIFICATIONS = ("rejected", "infeasible", "inconclusive", "sound", "violation")

#: How many standard errors of headroom the mean bracket gets before a
#: discrepancy counts as a violation.  Five sigma keeps the false-alarm
#: probability per seed well below 1e-6, so a reported violation is a
#: bug, not noise.
MEAN_SIGMAS = 5.0


@dataclass
class _Claims:
    """The numeric claims under test (what a defect may corrupt)."""

    upper: Optional[float]
    lower: Optional[float]
    #: ``(t, bound)`` per tail probe; empty when no tail bound exists.
    tail: List[Tuple[float, float]]
    #: Anchor ``E`` of the tail statement ``P[cost >= E + t, ...]``.
    tail_expected: float = 0.0


def _defect_weaken_upper(claims: _Claims) -> None:
    """Understate the PUCS value — violates whenever the sim succeeds."""
    if claims.upper is not None:
        claims.upper = 0.5 * claims.upper - 1.0


def _defect_raise_lower(claims: _Claims) -> None:
    """Overstate the PLCS value past the (sound) upper bound."""
    if claims.lower is not None:
        anchor = claims.upper if claims.upper is not None else claims.lower
        claims.lower = anchor + 1.0


def _defect_shrink_tail(claims: _Claims) -> None:
    """Corrupt the Azuma probes: near-zero offsets with near-zero bounds.

    Claims ``P[cost >= E + ~0] <= ~0`` — false for any program whose
    cost distribution puts mass above the anchor ``E``.  (Merely
    scaling the bounds would stay undetectable: the auto-picked
    offsets sit so far out that the empirical frequency is 0.)
    """
    claims.tail = [(t * 1e-3, bound * 1e-3) for t, bound in claims.tail]


#: Named defect hooks for self-testing the oracle (see module docstring).
DEFECTS: Dict[str, Callable[[_Claims], None]] = {
    "weaken-upper": _defect_weaken_upper,
    "raise-lower": _defect_raise_lower,
    "shrink-tail": _defect_shrink_tail,
}


@dataclass
class FuzzOutcome:
    """One seed's verdict plus the numbers behind it."""

    seed: int
    classification: str
    detail: str = ""
    upper: Optional[float] = None
    lower: Optional[float] = None
    sim_mean: Optional[float] = None
    sim_stderr: Optional[float] = None
    tail_probes_checked: int = 0
    #: Canonical source, attached only for violations (the seed + config
    #: already reproduce everything else byte-identically).
    source: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "seed": self.seed,
            "classification": self.classification,
            "detail": self.detail,
            "upper": self.upper,
            "lower": self.lower,
            "sim_mean": self.sim_mean,
            "sim_stderr": self.sim_stderr,
            "tail_probes_checked": self.tail_probes_checked,
        }
        if self.source is not None:
            payload["source"] = self.source
        return payload


@dataclass
class FuzzRun:
    """Aggregate of one fuzzing campaign (``repro-fuzz/v1``)."""

    config: GenConfig
    seed: int
    count: int
    defect: Optional[str]
    #: Abstract domain the analyzer under test generated invariants in.
    invariant_domain: str = "octagon"
    outcomes: List[FuzzOutcome] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        tally = {name: 0 for name in CLASSIFICATIONS}
        for outcome in self.outcomes:
            tally[outcome.classification] += 1
        return tally

    @property
    def violations(self) -> List[FuzzOutcome]:
        return [o for o in self.outcomes if o.classification == "violation"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro-fuzz/v1",
            "seed": self.seed,
            "count": self.count,
            "defect": self.defect,
            "invariant_domain": self.invariant_domain,
            "config": self.config.to_dict(),
            "counts": self.counts,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


class Harness:
    """The differential oracle.

    ``defect`` names an entry of :data:`DEFECTS` to corrupt the claims
    before checking (testing hook); ``None`` checks the real pipeline.

    ``invariant_domain`` is the abstract domain the analyzer under test
    generates invariants in.  Generated programs carry no hand
    annotations, so the relational ``"octagon"`` default exercises the
    strongest generator — and certifies coupled-counter loops the
    interval domain must classify as infeasible.
    """

    def __init__(
        self,
        config: Optional[GenConfig] = None,
        analyzer=None,
        defect: Optional[str] = None,
        invariant_domain: str = "octagon",
    ):
        from ..api import AnalysisOptions, Analyzer

        if defect is not None and defect not in DEFECTS:
            raise ValueError(f"unknown defect {defect!r}; known: {', '.join(sorted(DEFECTS))}")
        self.config = config or GenConfig()
        self.defect = defect
        # Validated by the settings record before any seed runs.
        self.invariant_domain = AnalysisOptions(invariant_domain=invariant_domain).invariant_domain
        if analyzer is None:
            analyzer = Analyzer()
        self.analyzer = analyzer

    # -- per-program pipeline --------------------------------------------

    def classify(self, program: Program, init: Dict[str, float], seed: int) -> FuzzOutcome:
        """Lint, analyze and simulate one program; return the verdict.

        ``seed`` keys the simulation stream (and labels the outcome);
        the same arguments always return the same verdict.
        """
        cfg = self.config
        try:
            result = self.analyzer.synthesize(
                program,
                degree="auto",
                max_degree=cfg.max_degree,
                init=dict(init),
                check="strict",
                tails=True,
                tail_horizon=cfg.sim_max_steps,
                invariant_domain=self.invariant_domain,
            )
        except CheckError as exc:
            return FuzzOutcome(seed=seed, classification="rejected", detail=str(exc))
        except (SynthesisError, DegreeError, NonLinearError, InvariantError) as exc:
            return FuzzOutcome(
                seed=seed, classification="infeasible", detail=f"{type(exc).__name__}: {exc}"
            )
        if result.upper is None:
            return FuzzOutcome(seed=seed, classification="infeasible", detail="no PUCS certificate")

        nondet = program.has_nondeterminism()
        sim_program = replace_nondet(program, prob=0.5) if nondet else program
        stats = simulate(
            build_cfg(sim_program),
            init,
            runs=cfg.sim_runs,
            seed=seed,
            max_steps=cfg.sim_max_steps,
        )
        claims = self._claims(result, init, nondet)
        outcome = self._check(claims, stats, nondet, seed)
        if outcome.classification == "violation":
            outcome.source = pretty(program)
        return outcome

    def run_one(self, seed: int) -> FuzzOutcome:
        prog: GeneratedProgram = generate(self.config, seed)
        outcome = self.classify(prog.program, prog.init, seed)
        if outcome.classification == "violation":
            outcome.source = prog.source
        return outcome

    def run(self, seed: int, count: int) -> FuzzRun:
        run = FuzzRun(
            config=self.config,
            seed=seed,
            count=count,
            defect=self.defect,
            invariant_domain=self.invariant_domain,
        )
        for offset in range(count):
            run.outcomes.append(self.run_one(seed + offset))
        return run

    # -- the checks ------------------------------------------------------

    def _claims(self, result, init: Dict[str, float], nondet: bool) -> _Claims:
        upper = result.upper.bound_at(init) if result.upper else None
        lower = result.lower.bound_at(init) if (result.lower and not nondet) else None
        tail: List[Tuple[float, float]] = []
        expected = 0.0
        if result.tail is not None and not nondet:
            expected = result.tail.expected
            tail = [(probe.t, probe.bound) for probe in result.tail.probes]
        claims = _Claims(upper=upper, lower=lower, tail=tail, tail_expected=expected)
        if self.defect is not None:
            DEFECTS[self.defect](claims)
        return claims

    def _check(
        self, claims: _Claims, stats: SimulationStats, nondet: bool, seed: int
    ) -> FuzzOutcome:
        base = FuzzOutcome(
            seed=seed,
            classification="sound",
            upper=claims.upper,
            lower=claims.lower,
            sim_mean=stats.mean if stats.terminated_runs else None,
            sim_stderr=stats.stderr() if stats.terminated_runs else None,
            tail_probes_checked=len(claims.tail),
        )
        if stats.truncated or not stats.terminated_runs:
            base.classification = "inconclusive"
            base.detail = f"{stats.truncated}/{stats.runs} runs truncated at {self.config.sim_max_steps} steps"
            return base

        margin = max(CONSISTENCY_TOL, MEAN_SIGMAS * stats.stderr())
        if claims.upper is not None and claims.upper < stats.mean - margin:
            base.classification = "violation"
            base.detail = (
                f"upper {claims.upper:.6g} < empirical mean {stats.mean:.6g} "
                f"(margin {margin:.3g})"
            )
            return base
        if claims.lower is not None and claims.lower > stats.mean + margin:
            base.classification = "violation"
            base.detail = (
                f"lower {claims.lower:.6g} > empirical mean {stats.mean:.6g} "
                f"(margin {margin:.3g})"
            )
            return base

        runs = stats.runs
        for t, bound in claims.tail:
            freq = stats.tail_frequency(claims.tail_expected + t)
            slack = (
                MEAN_SIGMAS * math.sqrt(max(bound * (1.0 - bound), 0.0) / runs)
                + 1.0 / runs
                + CONSISTENCY_TOL
            )
            if freq > bound + slack:
                base.classification = "violation"
                base.detail = (
                    f"tail P[cost >= {claims.tail_expected:.6g} + {t:.6g}] empirical "
                    f"{freq:.6g} > bound {bound:.6g} (slack {slack:.3g})"
                )
                return base
        return base
