"""High-level cost-analysis facade.

:func:`analyze` runs the complete pipeline of the paper on a program:

1. parse (if given source text) and build the CFG;
2. assemble invariants: user annotations, optionally strengthened by
   the automatic invariant generator, and lint them when asked;
3. classify the soundness regime (Section 6.2 vs 6.3) from the side
   conditions;
4. optionally certify concentration with a ranking supermartingale;
5. synthesize the PUCS upper bound and, when the regime admits one,
   the PLCS lower bound.

Steps 1-4 do not depend on the template degree.  :func:`analyze_ladder`
runs them once and then step 5 per degree of a plan, stopping at the
first degree that yields every requested bound; :func:`analyze` is its
one-degree case, and ``Benchmark.analyze`` drives it from an
:class:`~repro.api.AnalysisOptions` record for the batch engine and
``Analyzer.synthesize``.  :func:`assemble_invariants` is step 2 on its
own, shared with ``Analyzer.derive_invariants``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # runtime imports would be circular; these are lazy below
    from ..api.options import AnalysisOptions
    from ..check.diagnostics import CheckResult, Diagnostic
    from .tails import TailBound

from ..core.conditions import AnalysisMode, classify
from ..core.synthesis import BoundResult, synthesize
from ..errors import InfeasibleError, SynthesisError, UnboundedError
from ..invariants import InvariantMap
from ..invariants.generator import INVARIANT_DOMAINS, strengthen_invariants
from ..semantics.cfg import CFG, build_cfg
from ..syntax.ast import Program
from ..syntax.parser import parse_program
from ..termination import RankingCertificate, certify_concentration

__all__ = [
    "CostAnalysisResult",
    "analyze",
    "analyze_ladder",
    "assemble_invariants",
    "attach_tail_bound",
    "degree_plan",
]


@dataclass
class CostAnalysisResult:
    """Everything the pipeline produced for one program."""

    program: Program
    cfg: CFG
    invariants: InvariantMap
    mode: AnalysisMode
    upper: Optional[BoundResult] = None
    lower: Optional[BoundResult] = None
    concentration: Optional[RankingCertificate] = None
    #: Azuma–Hoeffding concentration bound (``analyze(tails=True)``);
    #: ``None`` when not requested or unavailable (see ``warnings``).
    tail: Optional["TailBound"] = None
    warnings: List[str] = field(default_factory=list)
    #: Why ``lower`` is ``None`` although a lower bound was requested:
    #: the regime admits no PLCS bound, or synthesis was infeasible.
    #: ``None`` when a lower bound exists or none was asked for.
    lower_skipped: Optional[str] = None
    #: Findings of the static lint pass (``analyze(check=...)``), in
    #: reading order.  ``None`` means the check did not run; an empty
    #: list means it ran and the program is clean.
    diagnostics: Optional[List["Diagnostic"]] = None
    #: The template degrees synthesis ran at, in order (the last one is
    #: the degree of ``upper``/``lower``).
    degrees_tried: List[int] = field(default_factory=list)

    @property
    def upper_bound(self):
        """The PUCS bound polynomial at the entry label (or None)."""
        return self.upper.bound if self.upper else None

    @property
    def lower_bound(self):
        """The PLCS bound polynomial at the entry label (or None)."""
        return self.lower.bound if self.lower else None

    def summary(self) -> str:
        """Human-readable report (used by the examples)."""
        lines = [f"program: {self.program.name or '<anonymous>'}", f"mode:    {self.mode.name}"]
        if self.upper:
            lines.append(f"upper:   {self.upper.bound.round(6)}  (value {self.upper.value:.6g})")
        if self.lower:
            lines.append(f"lower:   {self.lower.bound.round(6)}  (value {self.lower.value:.6g})")
        elif self.lower_skipped:
            # A requested-but-missing PLCS bound used to vanish from the
            # report silently; say why it is absent.
            lines.append(f"lower:   skipped ({self.lower_skipped})")
        if self.tail is not None:
            lines.extend(self.tail.summary_lines())
        if self.concentration is not None:
            status = "certified" if self.concentration.certifies_concentration else "RSM only"
            lines.append(
                f"concentration: {status} (E[T] <= {self.concentration.expected_time_bound:.6g})"
            )
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)

    def complete_for(self, compute_lower: bool) -> bool:
        """Did the analysis produce everything that was asked for?

        The degree ladder (:func:`analyze_ladder`) stops at the first
        degree meeting this rule: an upper bound must exist, and — when
        a lower bound was requested and the regime admits one — a lower
        bound too.
        """
        if self.upper is None:
            return False
        if compute_lower and self.mode.lower and self.lower is None:
            return False
        return True


def analyze(
    program: Union[str, Program],
    init: Mapping[str, float],
    invariants: Optional[Union[InvariantMap, Mapping[int, object]]] = None,
    degree: int = 2,
    auto_invariants: bool = True,
    check_concentration: bool = False,
    compute_lower: bool = True,
    max_multiplicands: Optional[int] = None,
    mode: str = "auto",
    invariant_domain: str = "interval",
    tails: bool = False,
    tail_horizon: Optional[int] = None,
    tail_probes: Optional[List[float]] = None,
    check: str = "off",
) -> CostAnalysisResult:
    """Run the full expected-cost analysis on ``program``.

    Parameters
    ----------
    program:
        Source text or a parsed :class:`Program`.
    init:
        The initial valuation ``v*`` the bounds are optimized for.
    invariants:
        Optional per-label annotations (an :class:`InvariantMap` or a
        ``{label: condition-string}`` mapping, cf. Figure 9).
    degree:
        Template degree ``d``.
    auto_invariants:
        Strengthen annotations with automatically generated interval
        invariants (on by default; the paper uses StInG similarly).
    check_concentration:
        Also synthesize a ranking supermartingale witnessing the
        concentration side condition of Theorems 6.10/6.12.
    compute_lower:
        Attempt the PLCS lower bound when the regime admits one.
    mode:
        ``"auto"`` classifies the soundness regime from the side
        conditions; ``"signed"`` forces the Section 6.2 regime (upper
        and lower bounds, no nonnegativity requirement on ``h``) and
        ``"nonnegative"`` forces the Section 6.3 regime (upper bound
        with nonnegative ``h``).  Forcing a regime whose side
        conditions fail is recorded as a warning, not an error — this
        mirrors how the paper's experiments treat e.g. the nested-loop
        benchmark.
    invariant_domain:
        The abstract domain of the automatic invariant generator:
        ``"interval"`` (default; per-variable boxes) or ``"octagon"``
        (relational ``+-x +-y <= c`` constraints).  Under the octagon
        domain the inferred relational rows are also *conjoined* into
        hand-annotated labels (they are sound by construction, so the
        merge only strengthens Gamma), and the lint pass gains the
        REP013/REP014 relational annotation checks.
    tails:
        Also derive an Azuma–Hoeffding concentration bound
        ``P[cost >= E + t, T <= n] <= exp(-t^2/(2 c^2 n))`` from the
        upper certificate (:mod:`repro.analysis.tails`).  ``tail_horizon``
        is the step horizon ``n`` (default 1e6, the interpreter's
        truncation default) and ``tail_probes`` the offsets ``t`` to
        pre-evaluate.  Unavailability (no constant difference bound at
        any tried degree) is a warning, not an error.
    check:
        Run the static lint pass (:mod:`repro.check`) first.  ``"off"``
        (default) skips it; ``"warn"`` attaches the findings to
        ``result.diagnostics`` and proceeds; ``"strict"`` additionally
        raises :class:`~repro.errors.CheckError` on any error-severity
        finding *before* any LP work.  Only user-supplied invariants
        are validated — the auto-generated interval invariants are
        consistent with the abstract states by construction.
    """
    return analyze_ladder(
        program,
        init,
        [degree],
        invariants,
        auto_invariants=auto_invariants,
        check_concentration=check_concentration,
        compute_lower=compute_lower,
        max_multiplicands=max_multiplicands,
        mode=mode,
        invariant_domain=invariant_domain,
        tails=tails,
        tail_horizon=tail_horizon,
        tail_probes=tail_probes,
        check=check,
    )


def degree_plan(settings: "AnalysisOptions", default: Optional[int] = None) -> list:
    """The degrees to attempt, in order, for a settings record.

    ``"auto"`` escalates 1..``max_degree``; a fixed degree is a
    one-element plan; ``None`` defers to ``default`` (a benchmark's own
    degree — kept as ``None`` when no default is given so the callee can
    resolve it).
    """
    if settings.degree == "auto":
        return list(range(1, settings.max_degree + 1))
    if settings.degree is not None:
        return [settings.degree]
    return [default]


def analyze_ladder(
    program: Union[str, Program],
    init: Mapping[str, float],
    degrees: Sequence[int],
    invariants: Optional[Union[InvariantMap, Mapping[int, object]]] = None,
    *,
    auto_invariants: bool = True,
    check_concentration: bool = False,
    compute_lower: bool = True,
    max_multiplicands: Optional[int] = None,
    mode: str = "auto",
    invariant_domain: str = "interval",
    tails: bool = False,
    tail_horizon: Optional[int] = None,
    tail_probes: Optional[List[float]] = None,
    check: str = "off",
    cfg: Optional[CFG] = None,
) -> CostAnalysisResult:
    """The degree ladder: the degree-independent prefix once, then
    synthesis per degree.

    The prefix builds the CFG (unless the caller passes ``cfg``, the
    CFG of ``program`` it already has), assembles user plus automatic
    invariants, lints when ``check`` asks, classifies the regime and
    certifies concentration.  The ``degrees`` are then tried in order,
    stopping at the first whose result is
    :meth:`~CostAnalysisResult.complete_for` the request; the tail
    bound is derived once, on that result, reusing the rungs' upper
    bounds for a refit, and ``degrees_tried`` records the rungs run.
    The other parameters are :func:`analyze`'s.
    """
    if check not in ("off", "warn", "strict"):
        raise ValueError("check must be 'off', 'warn' or 'strict'")
    if invariant_domain not in INVARIANT_DOMAINS:
        raise ValueError(
            f"invariant_domain must be one of {INVARIANT_DOMAINS}, got {invariant_domain!r}"
        )
    if isinstance(program, str):
        program = parse_program(program)
    if cfg is None:
        cfg = build_cfg(program)
    inv, check_result = assemble_invariants(
        cfg,
        init,
        invariants,
        auto_invariants=auto_invariants,
        invariant_domain=invariant_domain,
        check=check,
    )

    if mode not in ("auto", "signed", "nonnegative"):
        raise ValueError("mode must be 'auto', 'signed' or 'nonnegative'")
    detected = classify(cfg, inv)
    forced_warnings: List[str] = []
    if mode == "signed":
        if detected.name != "signed-bounded-update":
            forced_warnings.append(
                f"forced signed regime but side conditions detect {detected.name!r}; "
                "soundness relies on external justification of the update bounds"
            )
        detected = AnalysisMode(
            name="signed-bounded-update",
            upper=True,
            lower=True,
            require_nonnegative_template=False,
            reports=detected.reports,
        )
    elif mode == "nonnegative":
        if not detected.reports["nonnegative_costs"]:
            forced_warnings.append(
                "forced nonnegative regime but some costs may be negative; "
                "the upper bound is not covered by Theorem 6.14"
            )
        detected = AnalysisMode(
            name="nonnegative-general-update",
            upper=True,
            lower=False,
            require_nonnegative_template=True,
            reports=detected.reports,
        )
    mode_info = detected
    base = CostAnalysisResult(program=program, cfg=cfg, invariants=inv, mode=mode_info)
    base.warnings.extend(forced_warnings)
    if check_result is not None:
        base.diagnostics = list(check_result.diagnostics)

    if mode_info.name == "unsupported":
        base.warnings.append(
            "program has both negative costs and unbounded updates; "
            "no soundness theorem of the paper applies (Section 10)"
        )

    if check_concentration:
        base.concentration = certify_concentration(cfg, inv, init)
        if base.concentration is None:
            base.warnings.append("no linear ranking supermartingale found; concentration unverified")
        elif not base.concentration.certifies_concentration:
            base.warnings.append(
                "RSM found but updates are unbounded; concentration unverified"
            )

    result: Optional[CostAnalysisResult] = None
    uppers: Dict[int, Optional[BoundResult]] = {}
    for degree in degrees:
        result = _synthesize_at(base, init, degree, compute_lower, max_multiplicands)
        uppers[degree] = result.upper
        if result.complete_for(compute_lower):
            break
    assert result is not None, "the degree plan is empty"
    result.degrees_tried = list(uppers)

    if tails:
        attach_tail_bound(
            result,
            horizon=tail_horizon,
            probes=tail_probes,
            max_multiplicands=max_multiplicands,
            uppers=uppers,
        )
    return result


def assemble_invariants(
    cfg: CFG,
    init: Mapping[str, float],
    invariants: Optional[Union[InvariantMap, Mapping[int, object]]] = None,
    *,
    auto_invariants: bool = True,
    invariant_domain: str = "interval",
    check: str = "off",
) -> Tuple[InvariantMap, Optional["CheckResult"]]:
    """The invariant map synthesis runs under, and the lint result.

    Copies (or parses) the user's annotations, lints them when
    ``check`` asks — against the *user's* invariants, before generated
    ones are mixed in; ``"strict"`` raises
    :class:`~repro.errors.CheckError` on an error-severity finding —
    and then strengthens them with the invariants generated in
    ``invariant_domain`` (:func:`strengthen_invariants`), reusing the
    fixpoint the lint pass already ran.
    """
    if isinstance(invariants, InvariantMap):
        # Copy before strengthening below: the caller's map may be
        # cached/shared and must not observe our additions.
        inv = invariants.copy()
    elif invariants is not None:
        inv = InvariantMap.from_strings(cfg, dict(invariants))
    else:
        inv = InvariantMap.trivial()

    check_result = None
    if check != "off":
        from ..check import check_cfg

        check_result = check_cfg(
            cfg,
            init,
            inv if invariants is not None else None,
            invariant_domain=invariant_domain,
        )
        if check == "strict" and not check_result.ok:
            from ..errors import CheckError

            codes = ", ".join(sorted({d.code for d in check_result.errors}))
            raise CheckError(
                f"rejected by static checks ({codes}): "
                + "; ".join(d.format() for d in check_result.errors),
                diagnostics=check_result.diagnostics,
            )

    unknown_vars = set(init) - set(cfg.pvars)
    if unknown_vars:
        from ..errors import SemanticsError

        raise SemanticsError(f"initial valuation mentions unknown variables: {sorted(unknown_vars)}")

    if auto_invariants:
        fixpoint = check_result.fixpoint if check_result is not None else None
        strengthen_invariants(inv, cfg, init, invariant_domain, fixpoint)
    return inv, check_result


def _synthesize_at(
    base: CostAnalysisResult,
    init: Mapping[str, float],
    degree: int,
    compute_lower: bool,
    max_multiplicands: Optional[int],
) -> CostAnalysisResult:
    """One rung: ``base`` (the prefix's result) plus the degree-``degree``
    PUCS bound and, when requested and admitted, the PLCS bound."""
    result = replace(base, warnings=list(base.warnings))
    mode_info = base.mode
    try:
        result.upper = synthesize(
            base.cfg,
            base.invariants,
            init,
            kind="upper",
            degree=degree,
            nonnegative=mode_info.require_nonnegative_template,
            max_multiplicands=max_multiplicands,
        )
        result.warnings.extend(result.upper.warnings)
    except SynthesisError as exc:
        result.warnings.append(f"no degree-{degree} upper bound: {exc}")

    if compute_lower:
        if mode_info.lower:
            try:
                result.lower = synthesize(
                    base.cfg,
                    base.invariants,
                    init,
                    kind="lower",
                    degree=degree,
                    max_multiplicands=max_multiplicands,
                )
                result.warnings.extend(result.lower.warnings)
            except SynthesisError as exc:
                reason = f"no degree-{degree} lower bound: {exc}"
                result.warnings.append(reason)
                result.lower_skipped = reason
        else:
            # The regime rules out PLCS entirely (e.g. Theorem 6.14 is
            # upper-only); record why instead of dropping the request
            # on the floor.
            result.lower_skipped = (
                f"PLCS not attempted: regime {mode_info.name!r} admits no lower bound"
            )
    return result


def attach_tail_bound(
    result: CostAnalysisResult,
    horizon: Optional[int] = None,
    probes: Optional[List[float]] = None,
    max_multiplicands: Optional[int] = None,
    uppers: Optional[Mapping[int, Optional[BoundResult]]] = None,
) -> None:
    """Derive the Azuma–Hoeffding tail bound and attach it to ``result``.

    Unavailability (no upper certificate, or no constant
    step-difference bound at any tried degree) becomes a warning, not
    an error.  :func:`analyze_ladder` calls this once, on the *final*
    rung, rather than paying the auxiliary LP at every discarded degree,
    and passes the rungs' upper bounds as ``uppers`` (see
    :func:`~repro.analysis.tails.derive_tail_bound`).
    """
    from .tails import derive_tail_bound

    if result.upper is None:
        result.warnings.append("tail bound unavailable: no upper bound was synthesized")
        return
    try:
        result.tail = derive_tail_bound(
            result,
            horizon=horizon,
            probes=probes,
            max_multiplicands=max_multiplicands,
            uppers=uppers,
        )
    except (InfeasibleError, UnboundedError, SynthesisError) as exc:
        result.warnings.append(
            f"tail bound unavailable: no constant step-difference bound ({exc})"
        )
        return
    if result.tail.refit:
        result.warnings.append(
            f"tail bound derived from a degree-1 refit certificate "
            f"(anchor {result.tail.expected:.6g}): the reported degree-"
            f"{result.upper.degree} certificate has no constant "
            "step-difference bound"
        )
