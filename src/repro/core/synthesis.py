"""PUCS / PLCS synthesis — the paper's main algorithm (Section 7).

Pipeline, per Section 7:

1. **Template** — a degree-``d`` polynomial with unknown coefficients at
   every non-terminal label; ``h(l_out) = 0`` (conditions (C1), (C2)).
2. **Pre-expectation** — symbolic ``pre_h`` pieces per label
   (Definition 6.3, computed by :mod:`repro.core.preexpectation`).
3. **Handelman extraction** — each required inequality
   ``h - pre_h >= 0`` (PUCS, condition (C3)) or ``pre_h - h >= 0``
   (PLCS, condition (C3')) on the label's invariant becomes a
   certificate ``g = sum c_k f_k`` with fresh ``c_k >= 0``
   (:mod:`repro.core.handelman`).
4. **LP** — minimize (PUCS) or maximize (PLCS) the bound value
   ``h(l_in, v*)`` at the anchor valuation subject to the certificate
   equalities (:mod:`repro.core.lp`).

Nondeterminism: a PUCS must dominate *every* successor of a
nondeterministic label (``pre_h`` is a max), so one constraint per
successor is emitted.  A PLCS only needs to be dominated by *some*
successor; :func:`synthesize_plcs` enumerates the (few) branch-choice
combinations and keeps the best feasible bound.

Performance notes
-----------------
The expensive work — template construction, pre-expectation cases and
Handelman certificate extraction — is *policy independent* except at
the nondeterministic labels themselves.  :class:`_PreparedSynthesis`
computes everything once into one
:class:`~repro.core.handelman.CertificateProblem`, tagging the
per-``(label, choice)`` sites, and each of the up-to-``2^k`` policy LPs
only stitches precomputed rows together before solving.  The template
and its pre-expectation cases are additionally memoised per CFG and
degree, so the PUCS and PLCS runs of one analysis — and the ranking
supermartingale of :mod:`repro.termination` — share them.  So are the
site targets ``h(l) - pre_h``, ``pre_h - h(l)`` and ``h(l)``, compiled
once into :class:`~repro.core.handelman.CompiledTarget` rows: a request
on a CFG and degree seen before only joins them with its product blocks.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Callable, Dict, Hashable, List, Mapping, Optional

from ..errors import InfeasibleError, SynthesisError
from ..invariants import InvariantMap
from ..polynomials import LinForm, Polynomial
from ..semantics.cfg import CFG, NondetLabel, TerminalLabel
from .handelman import CertificateProblem, CompiledTarget, column_map
from .preexpectation import PreCase, pre_expectation_cases, step_difference_cases
from .templates import Template, make_template

__all__ = [
    "BoundResult",
    "SynthesisOptions",
    "anchor_objective",
    "difference_bound",
    "synthesize",
    "synthesize_pucs",
    "synthesize_plcs",
    "template_memo",
]

#: Enumerating nondeterministic policies for PLCS is exponential in the
#: number of nondeterministic labels; above this many we fall back to
#: the then-branch policy instead of enumerating.
_MAX_NONDET_ENUMERATION = 6


@dataclass
class SynthesisOptions:
    """Knobs of the synthesis algorithm.

    ``degree``
        Template degree ``d`` (condition (C1)).
    ``nonnegative``
        Additionally require ``h >= 0`` on every label's invariant —
        needed for the nonnegative-cost soundness case (Theorem 6.14).
    ``max_multiplicands``
        Cap ``K`` on Handelman multiplicands; ``None`` picks, per
        constraint site, the degree of the target polynomial (the
        smallest cap that can possibly match it).
    """

    degree: int = 2
    nonnegative: bool = False
    max_multiplicands: Optional[int] = None


@dataclass
class BoundResult:
    """A synthesized cost (super/sub)martingale and the bound it proves."""

    kind: str  # "upper" (PUCS) or "lower" (PLCS)
    degree: int
    h: Dict[int, Polynomial]
    bound: Polynomial  # h at the entry label, numeric
    value: float  # bound evaluated at the anchor valuation
    anchor: Dict[str, float]
    lp_variables: int = 0
    lp_equalities: int = 0
    runtime: float = 0.0
    nondet_choices: Optional[Dict[int, int]] = None
    options: SynthesisOptions = field(default_factory=SynthesisOptions)
    #: False when the PLCS policy space was *not* exhaustively explored
    #: (too many nondeterministic labels, so a fixed fallback policy was
    #: used) — the bound is still sound but may be suboptimal.
    policy_enumerated: bool = True
    #: Non-fatal conditions encountered while producing this bound;
    #: :func:`repro.analysis.analyze` copies these onto the result.
    warnings: List[str] = field(default_factory=list)

    def bound_at(self, valuation: Mapping[str, float]) -> float:
        """Evaluate the entry bound at another initial valuation.

        Remark 7 of the paper: the synthesized polynomial is a valid
        bound for *every* initial valuation satisfying the invariant,
        not just the anchor it was optimized for.
        """
        full = dict(valuation)
        for var in self.bound.variables():
            full.setdefault(var, 0.0)
        return self.bound.evaluate_numeric(full)

    def __repr__(self) -> str:
        return f"BoundResult({self.kind}, h(l_in) = {self.bound.round(6)}, value = {self.value:.6g})"


# ---------------------------------------------------------------------------
# Template / pre-expectation memoisation (shared by PUCS and PLCS runs)
# ---------------------------------------------------------------------------

class TemplateMemo:
    """What every request on one CFG and degree shares: the template,
    its pre-expectation cases per non-terminal label, and the compiled
    site targets.  Templates are deterministic in (cfg, degree) — same
    unknown names, same polynomials — so sharing them across synthesis
    kinds and requests is observationally free."""

    __slots__ = ("template", "cases", "columns", "targets")

    def __init__(self, cfg: CFG, degree: int):
        self.template = make_template(cfg, degree)
        self.cases: Dict[int, List[PreCase]] = {
            label.id: pre_expectation_cases(cfg, self.template.polys, label)
            for label in cfg
            if not isinstance(label, TerminalLabel)
        }
        #: The columns of every ``CertificateProblem(template.unknowns)``.
        self.columns = column_map(self.template.unknowns)
        self.targets: Dict[Hashable, CompiledTarget] = {}

    def target(self, key: Hashable, build: Callable[[], Polynomial]) -> CompiledTarget:
        """The site target ``key`` names, compiled from ``build()`` on
        first use."""
        compiled = self.targets.get(key)
        if compiled is None:
            compiled = self.targets[key] = CompiledTarget(build(), self.columns)
        return compiled


#: cfg -> {degree: TemplateMemo}, weak on the CFG so a memo dies with it.
_TEMPLATE_CACHE: "weakref.WeakKeyDictionary[CFG, Dict[int, TemplateMemo]]" = weakref.WeakKeyDictionary()


def template_memo(cfg: CFG, degree: int) -> TemplateMemo:
    """The :class:`TemplateMemo` of ``cfg`` at ``degree``."""
    try:
        per_cfg = _TEMPLATE_CACHE.setdefault(cfg, {})
    except TypeError:  # unhashable/unweakrefable CFG: skip caching
        per_cfg = {}
    memo = per_cfg.get(degree)
    if memo is None:
        memo = per_cfg[degree] = TemplateMemo(cfg, degree)
    return memo


def anchor_objective(cfg: CFG, template: Template, init: Mapping[str, float]) -> LinForm:
    """The LP objective ``h(l_in, v*)``, a linear form over the template
    unknowns, at the anchor ``v*`` (``init``, missing variables 0)."""
    anchor = {var: float(init.get(var, 0.0)) for var in cfg.pvars}
    objective = template.at(cfg.entry).evaluate(anchor)
    return objective if isinstance(objective, LinForm) else LinForm(float(objective))


# ---------------------------------------------------------------------------
# Prepared synthesis: certificates once, one LP per policy
# ---------------------------------------------------------------------------


class _PreparedSynthesis:
    """All policy-independent synthesis work for one (cfg, kind) pair.

    Template construction, pre-expectation cases and Handelman
    certificate extraction happen once here, into one
    :class:`~repro.core.handelman.CertificateProblem`; :meth:`solve`
    then solves the (small) LP of a concrete nondeterministic policy.
    """

    def __init__(
        self,
        cfg: CFG,
        invariants: InvariantMap,
        kind: str,
        options: SynthesisOptions,
        restrict_to: Optional[Mapping[int, int]] = None,
    ):
        """``restrict_to`` fixes the nondeterministic policy up front:
        certificates for non-chosen successors are skipped entirely.
        Omit it when :meth:`solve` will be called for several policies."""
        start = time.perf_counter()
        self.cfg = cfg
        self.kind = kind
        self.options = options
        memo = template_memo(cfg, options.degree)
        self.template = memo.template
        self.problem = CertificateProblem(self.template.unknowns)
        h = self.template.polys
        cap = options.max_multiplicands
        for label in cfg:
            if isinstance(label, TerminalLabel):
                continue
            region = invariants.get(label.id)
            for case_index, case in enumerate(memo.cases[label.id]):
                tag = None
                if isinstance(label, NondetLabel) and kind == "lower":
                    # (C3') at a nondet label: max over successors >= h is
                    # witnessed by the policy's chosen successor only.
                    tag = (label.id, case.choice)
                    if restrict_to is not None and case.choice != restrict_to.get(label.id, 0):
                        continue
                if kind == "upper":
                    target = memo.target((kind, label.id, case_index), lambda: h[label.id] - case.poly)
                else:
                    target = memo.target((kind, label.id, case_index), lambda: case.poly - h[label.id])
                # The inequality must hold on the whole invariant region:
                # one Handelman site per polyhedron of the union.
                for d_index, polyhedron in enumerate(region):
                    gammas = polyhedron.constraints + [atom.poly for atom in case.guard]
                    self.problem.add_site(
                        f"l{label.id}_{case_index}_{d_index}", target, gammas, cap=cap, tag=tag
                    )
            if options.nonnegative:
                target = memo.target(("nn", label.id), lambda: h[label.id])
                for d_index, polyhedron in enumerate(region):
                    self.problem.add_site(
                        f"l{label.id}_nn_{d_index}", target, polyhedron.constraints, cap=cap
                    )
        #: Certificate-extraction time, charged to every solved policy so
        #: ``BoundResult.runtime`` keeps meaning "time to produce this
        #: bound from scratch" (what the Table 3/4 columns report).
        self.prepare_seconds = time.perf_counter() - start

    def solve(self, init: Mapping[str, float], nondet_choices: Mapping[int, int]) -> BoundResult:
        start = time.perf_counter()
        cfg, options = self.cfg, self.options
        solution = self.problem.solve(
            anchor_objective(cfg, self.template, init),
            maximize=(self.kind == "lower"),
            choices=nondet_choices,
        )
        h_numeric = self.template.instantiate(solution.values)
        bound = h_numeric[cfg.entry]
        return BoundResult(
            kind=self.kind,
            degree=options.degree,
            h=h_numeric,
            bound=bound,
            value=solution.objective,
            anchor={var: float(init.get(var, 0.0)) for var in cfg.pvars},
            lp_variables=solution.num_variables,
            lp_equalities=solution.num_equalities,
            runtime=self.prepare_seconds + (time.perf_counter() - start),
            nondet_choices=dict(nondet_choices) or None,
            options=options,
        )


def _synthesize_once(
    cfg: CFG,
    invariants: InvariantMap,
    init: Mapping[str, float],
    kind: str,
    options: SynthesisOptions,
    nondet_choices: Mapping[int, int],
) -> BoundResult:
    prepared = _PreparedSynthesis(cfg, invariants, kind, options, restrict_to=nondet_choices)
    return prepared.solve(init, nondet_choices)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def synthesize(
    cfg: CFG,
    invariants: InvariantMap,
    init: Mapping[str, float],
    kind: str = "upper",
    degree: int = 2,
    nonnegative: bool = False,
    max_multiplicands: Optional[int] = None,
    nondet_choices: Optional[Mapping[int, int]] = None,
) -> BoundResult:
    """Synthesize a PUCS (``kind="upper"``) or PLCS (``kind="lower"``).

    ``init`` is the anchor valuation ``v*`` the bound is optimized for
    (Remark 7); the returned polynomial bound remains sound for every
    valuation in the entry invariant.
    """
    if kind not in ("upper", "lower"):
        raise ValueError("kind must be 'upper' or 'lower'")
    options = SynthesisOptions(
        degree=degree, nonnegative=nonnegative, max_multiplicands=max_multiplicands
    )

    nondet_labels = cfg.nondet_labels()
    if kind == "upper" or not nondet_labels:
        return _synthesize_once(cfg, invariants, init, kind, options, nondet_choices or {})

    if nondet_choices is not None:
        return _synthesize_once(cfg, invariants, init, kind, options, nondet_choices)

    # PLCS with nondeterminism: enumerate branch policies, keep the best.
    # Certificates are policy-independent except at the nondet labels,
    # so prepare once and only re-solve the LP per policy.
    if len(nondet_labels) > _MAX_NONDET_ENUMERATION:
        policy = {label.id: 0 for label in nondet_labels}
        result = _synthesize_once(cfg, invariants, init, kind, options, policy)
        result.policy_enumerated = False
        result.warnings.append(
            f"PLCS policy enumeration skipped: {len(nondet_labels)} nondeterministic "
            f"labels exceed the cap of {_MAX_NONDET_ENUMERATION}; used the all-then "
            "policy, so the lower bound may be suboptimal"
        )
        return result

    prepared = _PreparedSynthesis(cfg, invariants, kind, options)
    best: Optional[BoundResult] = None
    failures: List[str] = []
    for combo in iter_product((0, 1), repeat=len(nondet_labels)):
        policy = {label.id: choice for label, choice in zip(nondet_labels, combo)}
        try:
            candidate = prepared.solve(init, policy)
        except SynthesisError as exc:  # includes a NaN optimum
            failures.append(f"policy {policy}: {exc}")
            continue
        if best is None or candidate.value > best.value:
            best = candidate
    if best is None:
        raise InfeasibleError(
            "no PLCS found under any nondeterministic policy; " + "; ".join(failures)
        )
    return best


def difference_bound(
    cfg: CFG,
    invariants: InvariantMap,
    h: Mapping[int, Polynomial],
    max_multiplicands: Optional[int] = None,
) -> float:
    """Smallest certified almost-sure step-difference bound ``c`` of the
    cost supermartingale ``X_n = accumulated cost + h(l_n, v_n)``.

    An auxiliary LP over the same Handelman monoid products as the
    synthesis itself: for every realized one-step outcome ``diff``
    (:func:`~repro.core.preexpectation.step_difference_cases`) on every
    polyhedron of the label's invariant, both ``c - diff >= 0`` and
    ``c + diff >= 0`` are certified, and ``c >= 0`` is minimized.
    ``h`` must be numeric (a synthesized certificate, not a template).

    Raises :class:`InfeasibleError` when no constant bound exists —
    e.g. a quadratic certificate whose gradient is unbounded on the
    invariant, or a variable-dependent tick cost over an unbounded
    region — and :class:`UnboundedError` for unbounded sampling
    support.  Tail-bound callers treat both as "no Azuma bound at this
    degree" and may retry with a lower-degree certificate.
    """
    problem = CertificateProblem(["tail_c"], nonnegative=True)
    c_poly = Polynomial.constant(LinForm.unknown("tail_c"))
    for label in cfg:
        if isinstance(label, TerminalLabel):
            continue
        region = invariants.get(label.id)
        for case_index, case in enumerate(step_difference_cases(cfg, h, label)):
            if case.diff.is_zero():
                continue  # a self-loop-free no-op step never moves X
            for d_index, polyhedron in enumerate(region):
                gammas = polyhedron.constraints + [atom.poly for atom in case.guard] + case.support
                for sign, target in (("up", c_poly - case.diff), ("dn", c_poly + case.diff)):
                    name = f"diff_{label.id}_{case_index}_{d_index}_{sign}"
                    problem.add_site(name, target, gammas, cap=max_multiplicands)
    if not problem.sites:
        return 0.0
    solution = problem.solve(LinForm.unknown("tail_c"))
    return max(0.0, float(solution.values["tail_c"]))


def synthesize_pucs(
    cfg: CFG,
    invariants: InvariantMap,
    init: Mapping[str, float],
    degree: int = 2,
    nonnegative: bool = False,
    max_multiplicands: Optional[int] = None,
) -> BoundResult:
    """Upper bound on the maximal expected accumulated cost (Thms 6.10, 6.14)."""
    return synthesize(
        cfg,
        invariants,
        init,
        kind="upper",
        degree=degree,
        nonnegative=nonnegative,
        max_multiplicands=max_multiplicands,
    )


def synthesize_plcs(
    cfg: CFG,
    invariants: InvariantMap,
    init: Mapping[str, float],
    degree: int = 2,
    max_multiplicands: Optional[int] = None,
    nondet_choices: Optional[Mapping[int, int]] = None,
) -> BoundResult:
    """Lower bound on the maximal expected accumulated cost (Thm 6.12)."""
    return synthesize(
        cfg,
        invariants,
        init,
        kind="lower",
        degree=degree,
        max_multiplicands=max_multiplicands,
        nondet_choices=nondet_choices,
    )
