"""The pipeline of the paper on one resolved request.

The one input is the triple :func:`repro.programs.resolve` returns —
``(bench, init, settings)``: the benchmark (program, CFG and
annotations), the initial valuation ``v*`` and the
:class:`~repro.api.AnalysisOptions` record with ``degree`` and ``mode``
filled in.  :func:`analyze_ladder` runs the steps:

1. assemble invariants: the benchmark's annotations, linted when asked
   and strengthened by the automatic invariant generator
   (:func:`assemble_invariants`, shared with
   ``Analyzer.derive_invariants``);
2. classify the soundness regime (Section 6.2 vs 6.3) from the side
   conditions;
3. optionally certify concentration with a ranking supermartingale;
4. per degree of the plan, synthesize the PUCS upper bound and, when
   the regime admits one, the PLCS lower bound, stopping at the first
   degree that yields every requested bound;
5. optionally derive the Azuma–Hoeffding tail bound.

Steps 1-3 do not depend on the template degree and run once.
:func:`analyze` is the front door for a program given by name, source
text or object, in :class:`~repro.api.Analyzer`'s ``(program,
options=None, **overrides)`` convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple, Union

if TYPE_CHECKING:  # runtime imports would be circular; these are lazy below
    from ..api.options import AnalysisOptions
    from ..check.diagnostics import CheckResult, Diagnostic
    from ..programs import Benchmark
    from .tails import TailBound

from ..core.conditions import AnalysisMode, classify
from ..core.synthesis import BoundResult, synthesize
from ..errors import InfeasibleError, SynthesisError, UnboundedError
from ..invariants import InvariantMap
from ..invariants.generator import strengthen_invariants
from ..semantics.cfg import CFG
from ..syntax.ast import Program
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

    def complete_for(self, settings: "AnalysisOptions") -> bool:
        """Did the analysis produce everything ``settings`` asked for?

        The degree ladder (:func:`analyze_ladder`) stops at the first
        degree meeting this rule: an upper bound must exist, and — when
        ``settings.compute_lower`` and the regime admits one — a lower
        bound too.
        """
        if self.upper is None:
            return False
        if settings.compute_lower and self.mode.lower and self.lower is None:
            return False
        return True


def analyze(
    program: Union[str, Program, "Benchmark"],
    options: Optional["AnalysisOptions"] = None,
    *,
    check_concentration: bool = False,
    **overrides: Any,
) -> CostAnalysisResult:
    """Run the full expected-cost analysis on ``program``.

    ``program`` is a registry benchmark name, source text, a
    :class:`~repro.programs.Benchmark` or a parsed :class:`Program`;
    ``options`` is an :class:`~repro.api.AnalysisOptions` record (the
    defaults when ``None``) and ``overrides`` set its fields by name —
    :meth:`repro.api.Analyzer.synthesize`'s convention, which this
    calls::

        analyze(source, init={"x": 100}, invariants={1: "x >= 0"}, degree="auto")

    ``check_concentration`` also synthesizes a ranking supermartingale
    witnessing the concentration side condition of Theorems 6.10/6.12.
    """
    from ..api.analyzer import Analyzer

    return Analyzer(options).synthesize(
        program, check_concentration=check_concentration, **overrides
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
    bench: "Benchmark",
    init: Mapping[str, float],
    settings: "AnalysisOptions",
    *,
    check_concentration: bool = False,
) -> CostAnalysisResult:
    """The degree ladder on a resolved request: the degree-independent
    prefix once, then synthesis per degree.

    ``(bench, init, settings)`` is what :func:`repro.programs.resolve`
    returns.  The prefix takes the benchmark's CFG, assembles user plus
    automatic invariants (:func:`assemble_invariants`, which lints when
    ``settings.check`` asks), classifies the regime — forced by
    ``settings.mode`` when it is not ``"auto"``, with a warning, not an
    error, when the forced regime's side conditions fail — and
    certifies concentration when ``check_concentration``.  The degrees of
    :func:`degree_plan` are then tried in order, stopping at the first
    whose result is :meth:`~CostAnalysisResult.complete_for` the
    request; the tail bound is derived once, on that result, reusing
    the rungs' upper bounds for a refit, and ``degrees_tried`` records
    the rungs run.  An ``"auto"`` plan that runs out of degrees before
    every requested bound exists says so in a warning.
    """
    cfg = bench.cfg
    inv, check_result = assemble_invariants(bench, init, settings)

    detected = classify(cfg, inv)
    forced_warnings: List[str] = []
    if settings.mode == "signed":
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
    elif settings.mode == "nonnegative":
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
    base = CostAnalysisResult(program=bench.program, cfg=cfg, invariants=inv, mode=mode_info)
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
    for degree in degree_plan(settings):
        result = _synthesize_at(base, init, degree, settings)
        uppers[degree] = result.upper
        if result.complete_for(settings):
            break
    assert result is not None, "the degree plan is empty"
    result.degrees_tried = list(uppers)

    if settings.tails:
        attach_tail_bound(result, settings, uppers)
    if settings.degree == "auto" and not result.complete_for(settings):
        result.warnings.append(
            f"degree escalation exhausted at d={settings.max_degree} "
            "without a feasible bound for every requested side"
        )
    return result


def assemble_invariants(
    bench: "Benchmark", init: Mapping[str, float], settings: "AnalysisOptions"
) -> Tuple[InvariantMap, Optional["CheckResult"]]:
    """The invariant map synthesis runs under, and the lint result.

    Takes the benchmark's annotations at ``init``, lints them when
    ``settings.check`` asks — the *user's* invariants, before generated
    ones are mixed in; ``"strict"`` raises
    :class:`~repro.errors.CheckError` on an error-severity finding —
    and then, when ``settings.auto_invariants``, strengthens them with
    the invariants generated in ``settings.invariant_domain``
    (:func:`strengthen_invariants`), reusing the fixpoint the lint pass
    already ran.
    """
    cfg = bench.cfg
    inv = bench.invariant_map(init)

    check_result = None
    if settings.check != "off":
        from ..check import check_cfg

        check_result = check_cfg(cfg, init, inv, settings)
        if settings.check == "strict" and not check_result.ok:
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

    if settings.auto_invariants:
        fixpoint = check_result.fixpoint if check_result is not None else None
        strengthen_invariants(inv, cfg, init, settings.invariant_domain, fixpoint)
    return inv, check_result


def _synthesize_at(
    base: CostAnalysisResult,
    init: Mapping[str, float],
    degree: int,
    settings: "AnalysisOptions",
) -> CostAnalysisResult:
    """One rung: ``base`` (the prefix's result) plus the degree-``degree``
    PUCS bound and, when requested and admitted, the PLCS bound."""
    result = replace(base, warnings=list(base.warnings))
    mode_info = base.mode
    max_multiplicands = settings.max_multiplicands
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

    if settings.compute_lower:
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
    settings: "AnalysisOptions",
    uppers: Optional[Mapping[int, Optional[BoundResult]]] = None,
) -> None:
    """Derive the Azuma–Hoeffding tail bound at ``settings.tail_horizon``
    and ``settings.tail_probes`` and attach it to ``result``.

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
            horizon=settings.tail_horizon,
            probes=settings.tail_probes,
            max_multiplicands=settings.max_multiplicands,
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
