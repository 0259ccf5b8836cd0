"""Soundness side conditions (Sections 5 and 6).

The soundness theorems come with applicability envelopes:

* **Theorem 6.10 / 6.12** (general signed costs): the program must have
  the *bounded update* property (Definition 6.9) and the concentration
  property; the latter is certified separately by
  :mod:`repro.termination`.
* **Theorem 6.14** (general updates): every stepwise cost must be
  nonnegative and the PUCS itself nonnegative.

This module implements decidable sufficient checks for those conditions
and a :func:`classify` helper that picks the strongest applicable
analysis mode, mirroring how the paper's experiments choose between the
Section 6.2 and Section 6.3 regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import InfeasibleError, UnboundedError
from ..invariants import InvariantMap
from ..polynomials import LinForm, Polynomial
from ..semantics.cfg import CFG, AssignLabel
from .handelman import CertificateProblem

__all__ = [
    "ConditionReport",
    "check_bounded_updates",
    "check_bounded_costs",
    "check_nonnegative_costs",
    "classify",
    "AnalysisMode",
]


@dataclass
class ConditionReport:
    """Outcome of one side-condition check."""

    holds: bool
    detail: str
    offending_labels: List[int] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds


def _interval_bounds_from_polyhedron(polyhedron) -> dict:
    """Extract per-variable interval bounds from single-variable linear
    constraints of a polyhedron (``a*x + b >= 0``)."""
    from ..polynomials import Monomial

    bounds: dict = {}
    for g in polyhedron:
        if not g.is_linear():
            continue
        variables = g.variables()
        if len(variables) != 1:
            continue
        (var,) = variables
        a = float(g.coeff(Monomial.variable(var)))
        b = float(g.constant_term())
        if a == 0.0:
            continue
        lo, hi = bounds.get(var, (float("-inf"), float("inf")))
        if a > 0:  # x >= -b/a
            lo = max(lo, -b / a)
        else:  # x <= -b/-(-a) = b/(-a)
            hi = min(hi, -b / a)
        bounds[var] = (lo, hi)
    return bounds


def _interval_bounds_from_region(region) -> dict:
    """Per-variable bounds valid on a union of polyhedra (the join of
    the per-disjunct bounds)."""
    joined: dict = {}
    for index, polyhedron in enumerate(region):
        bounds = _interval_bounds_from_polyhedron(polyhedron)
        if index == 0:
            joined = bounds
            continue
        merged = {}
        for var in set(joined) & set(bounds):
            lo1, hi1 = joined[var]
            lo2, hi2 = bounds[var]
            merged[var] = (min(lo1, lo2), max(hi1, hi2))
        joined = merged
    return joined


def _delta_is_bounded(cfg: CFG, label: AssignLabel, invariants: Optional[InvariantMap]) -> bool:
    """Is ``|e - x|`` bounded by a constant on the label's invariant?"""
    import math

    delta = label.expr - Polynomial.variable(label.var)
    var_bounds = (
        _interval_bounds_from_region(invariants.get(label.id)) if invariants is not None else {}
    )
    total_lo, total_hi = 0.0, 0.0
    for mono, coeff in delta.terms():
        term_lo, term_hi = 1.0, 1.0
        for var, exp in mono:
            dist = cfg.rvars.get(var)
            if dist is not None:
                lo, hi = dist.support_bounds()
            else:
                lo, hi = var_bounds.get(var, (float("-inf"), float("inf")))
            for _ in range(exp):
                candidates = [term_lo * lo, term_lo * hi, term_hi * lo, term_hi * hi]
                candidates = [0.0 if math.isnan(v) else v for v in candidates]
                term_lo, term_hi = min(candidates), max(candidates)
        c = float(coeff)
        lo_c, hi_c = (c * term_lo, c * term_hi) if c >= 0 else (c * term_hi, c * term_lo)
        total_lo += lo_c
        total_hi += hi_c
    return math.isfinite(total_lo) and math.isfinite(total_hi)


def check_bounded_updates(cfg: CFG, invariants: Optional[InvariantMap] = None) -> ConditionReport:
    """Sufficient check for Definition 6.9 (bounded update).

    An assignment ``x := e`` has bounded update when ``|e - x|`` is
    bounded by a constant over the label's invariant.  The check
    evaluates ``e - x`` in interval arithmetic, using distribution
    support bounds for sampling variables and (when ``invariants`` is
    supplied) interval constraints for program variables.  Shift-style
    updates (``x := x + r``) always pass; copies like ``n := n - x + r``
    pass when the invariant bounds ``x``; scalings (``a := 1.1 * a``)
    over unbounded ranges are rejected — they genuinely violate bounded
    update.
    """
    offending: List[int] = []
    details: List[str] = []
    for label in cfg:
        if not isinstance(label, AssignLabel):
            continue
        if not _delta_is_bounded(cfg, label, invariants):
            offending.append(label.id)
            details.append(f"label {label.id} ({label.describe()}): unbounded state change")
    if offending:
        return ConditionReport(False, "; ".join(details), offending)
    return ConditionReport(True, "all assignments have bounded updates")


def check_bounded_costs(cfg: CFG) -> ConditionReport:
    """All tick costs are constants (the setting of [74])."""
    offending = [l.id for l in cfg.tick_labels() if not l.cost.is_constant()]
    if offending:
        return ConditionReport(False, f"variable-dependent costs at labels {offending}", offending)
    return ConditionReport(True, "all tick costs are constants")


def check_nonnegative_costs(
    cfg: CFG, invariants: Optional[InvariantMap] = None, max_multiplicands: Optional[int] = None
) -> ConditionReport:
    """Every tick cost is nonnegative on its label's invariant.

    Constant costs are decided directly; variable-dependent costs are
    certified by a small Handelman feasibility LP over the invariant at
    the tick label.  The check is sound (never accepts a cost that can
    be negative within the invariant) but incomplete.
    """
    invariants = invariants or InvariantMap.trivial()
    offending: List[int] = []
    # Tick labels often pose the same LP, e.g. ``5x`` on ``1 <= x <= 10``
    # and ``5y`` on ``1 <= y <= 10``: each distinct LP is solved once.
    verdicts: Dict[tuple, bool] = {}

    def certified(cost: Polynomial, gammas: List[Polynomial]) -> bool:
        """Certify ``cost >= 0`` on ``<gammas>`` by a feasibility LP."""
        problem = CertificateProblem()
        problem.add_site("nncheck", cost, gammas, cap=max_multiplicands)
        key = problem.content_key()
        if key not in verdicts:
            try:
                problem.solve(LinForm(0.0))
                verdicts[key] = True
            except (InfeasibleError, UnboundedError):
                verdicts[key] = False
        return verdicts[key]

    for label in cfg.tick_labels():
        if label.cost.is_constant():
            if float(label.cost.constant_term()) < 0.0:
                offending.append(label.id)
            continue
        if not all(
            certified(label.cost, polyhedron.constraints)
            for polyhedron in invariants.get(label.id)
        ):
            offending.append(label.id)
    if offending:
        return ConditionReport(
            False, f"possibly negative costs at labels {offending}", offending
        )
    return ConditionReport(True, "all tick costs certified nonnegative")


@dataclass
class AnalysisMode:
    """Which soundness regime applies, and therefore which bounds exist.

    * ``signed-bounded-update`` (Section 6.2): upper *and* lower bounds;
      requires concentration (certify via :mod:`repro.termination`).
    * ``nonnegative-general-update`` (Section 6.3): upper bounds only,
      with a nonnegative PUCS; no OST needed.
    * ``unsupported``: both negative costs and unbounded updates — the
      open case the paper leaves as future work (Section 10).
    """

    name: str
    upper: bool
    lower: bool
    require_nonnegative_template: bool
    reports: dict = field(default_factory=dict)


def classify(cfg: CFG, invariants: Optional[InvariantMap] = None) -> AnalysisMode:
    """Pick the strongest applicable soundness regime for ``cfg``."""
    bounded_updates = check_bounded_updates(cfg, invariants)
    nonneg_costs = check_nonnegative_costs(cfg, invariants)
    reports = {
        "bounded_updates": bounded_updates,
        "nonnegative_costs": nonneg_costs,
        "bounded_costs": check_bounded_costs(cfg),
    }
    if bounded_updates:
        return AnalysisMode(
            name="signed-bounded-update",
            upper=True,
            lower=True,
            require_nonnegative_template=False,
            reports=reports,
        )
    if nonneg_costs:
        return AnalysisMode(
            name="nonnegative-general-update",
            upper=True,
            lower=False,
            require_nonnegative_template=True,
            reports=reports,
        )
    return AnalysisMode(
        name="unsupported",
        upper=False,
        lower=False,
        require_nonnegative_template=False,
        reports=reports,
    )
