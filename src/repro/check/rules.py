"""The rule-driven lint pass: abstract states in, diagnostics out.

Each rule inspects the program/CFG and the interval fixpoint of
:mod:`repro.check.interp` and emits :class:`Diagnostic` records with
stable ``REP0xx`` codes.  Rules are deliberately *proof-based* where
they claim dead code or unsound invariants: "unreachable", "edge never
taken" and "invariant excludes reachable states" all rest on the
over-approximating abstract semantics, so a finding is a theorem about
the program, not a heuristic — the registry benchmarks lint clean under
``--strict`` and the seeded-defect corpus pins each code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .octagon import OctagonAnalysis

from ..invariants.annotations import InvariantMap
from ..semantics.cfg import (
    CFG,
    AssignLabel,
    BranchLabel,
    ProbLabel,
    TerminalLabel,
    TickLabel,
    _assign_ids,
)
from ..syntax.ast import Assign, If, Tick, While
from .diagnostics import Diagnostic, sort_diagnostics
from .interp import AbstractAnalysis

__all__ = ["run_rules"]

#: Interval-emptiness tolerance: a constraint whose supremum over the
#: abstract box is below ``-_TOL`` provably excludes the whole box.
_TOL = 1e-9


def _where(cfg: CFG, label_id: Optional[int]) -> Dict[str, Optional[int]]:
    """Location kwargs for a diagnostic anchored at a CFG label."""
    pos = cfg.positions.get(label_id) if label_id is not None else None
    return {
        "label": label_id,
        "line": pos[0] if pos else None,
        "column": pos[1] if pos else None,
    }


def _stmt_label_ids(cfg: CFG) -> Dict[int, int]:
    """``id(stmt) -> label id`` for the CFG's own program.

    Re-runs the deterministic numbering pass of :func:`build_cfg`, so
    AST-level rules (e.g. the no-assignment-loop check) can anchor
    findings at the exact label the statement compiled to.
    """
    counter = [1]
    ids: Dict[int, int] = {}
    _assign_ids(cfg.program.body, counter, ids)
    return ids


def _full_init(cfg: CFG, init: Mapping[str, float]) -> Dict[str, float]:
    """The concrete entry valuation (unset variables default to 0)."""
    return {var: float(init.get(var, 0.0)) for var in cfg.pvars}


# ---------------------------------------------------------------------------
# Individual rules
# ---------------------------------------------------------------------------


def _rule_init_vars(cfg: CFG, init: Mapping[str, float], out: List[Diagnostic]) -> None:
    """REP001: initial valuation references undeclared variables."""
    unknown = sorted(set(init) - set(cfg.pvars))
    if unknown:
        out.append(
            Diagnostic.of(
                "REP001",
                f"initial valuation mentions undeclared variables: {unknown} "
                f"(program variables: {sorted(cfg.pvars)})",
            )
        )


def _rule_uninitialized_reads(
    cfg: CFG, init: Mapping[str, float], out: List[Diagnostic]
) -> None:
    """REP002: variable read before assignment with no initial value.

    A forward must-assigned dataflow: at each label, the set of
    variables assigned on *every* path from entry.  Reading a variable
    outside that set — and outside the initial valuation — silently
    uses the implicit default 0.
    """
    init_vars = set(init) & set(cfg.pvars)
    assigned: Dict[int, Optional[Set[str]]] = {label.id: None for label in cfg}
    assigned[cfg.entry] = set(init_vars)
    worklist = [cfg.entry]
    while worklist:
        label_id = worklist.pop(0)
        label = cfg.labels[label_id]
        outgoing = set(assigned[label_id])
        if isinstance(label, AssignLabel):
            outgoing.add(label.var)
        for succ in label.successors():
            old = assigned[succ]
            new = set(outgoing) if old is None else (old & outgoing)
            if old is None or new != old:
                assigned[succ] = new
                worklist.append(succ)

    pvars = set(cfg.pvars)
    reported: Set[str] = set()
    for label in cfg:
        have = assigned.get(label.id)
        if have is None:  # structurally unreachable from entry
            continue
        if isinstance(label, AssignLabel):
            reads = label.expr.variables() & pvars
        elif isinstance(label, BranchLabel):
            reads = label.cond.variables() & pvars
        elif isinstance(label, TickLabel):
            reads = label.cost.variables() & pvars
        else:
            continue
        for var in sorted(reads):
            if var not in have and var not in reported:
                reported.add(var)
                out.append(
                    Diagnostic.of(
                        "REP002",
                        f"variable {var!r} is read before any assignment and has no "
                        "initial value; it silently defaults to 0",
                        **_where(cfg, label.id),
                    )
                )


def _rule_unreachable(cfg: CFG, analysis: AbstractAnalysis, out: List[Diagnostic]) -> None:
    """REP003: provably unreachable statements.

    Only boundary labels are reported — the first dead label after a
    reachable predecessor — so one dead branch yields one finding, not
    one per statement it contains.
    """
    for label in cfg:
        if isinstance(label, TerminalLabel) or analysis.reachable(label.id):
            continue
        preds = cfg.predecessors(label.id)
        if preds and not any(analysis.reachable(p) for p in preds):
            continue  # interior of a dead region; the boundary is reported
        out.append(
            Diagnostic.of(
                "REP003",
                f"unreachable statement: {label.describe()}",
                **_where(cfg, label.id),
            )
        )


def _rule_dead_branches(cfg: CFG, analysis: AbstractAnalysis, out: List[Diagnostic]) -> None:
    """REP004: branch edges that are provably never taken."""
    for label in cfg:
        if not isinstance(label, BranchLabel) or not analysis.reachable(label.id):
            continue
        true_ok, false_ok = analysis.branch_feasibility(label)
        if not true_ok:
            message = (
                f"loop body is never entered: guard '{label.cond}' is provably false"
                if label.is_loop_head
                else f"then-branch is never taken: condition '{label.cond}' is provably false"
            )
            out.append(Diagnostic.of("REP004", message, **_where(cfg, label.id)))
        if not false_ok:
            message = (
                f"loop guard '{label.cond}' provably never becomes false"
                if label.is_loop_head
                else f"else-branch is never taken: condition '{label.cond}' provably holds"
            )
            out.append(Diagnostic.of("REP004", message, **_where(cfg, label.id)))


def _rule_dead_ticks(cfg: CFG, analysis: AbstractAnalysis, out: List[Diagnostic]) -> None:
    """REP005: tick whose cost is provably zero at the tick site."""
    for label in cfg.tick_labels():
        value = analysis.eval_poly(label.id, label.cost)
        if value is not None and value.lo == 0.0 and value.hi == 0.0:
            out.append(
                Diagnostic.of(
                    "REP005",
                    f"tick({label.cost}) accrues provably zero cost",
                    **_where(cfg, label.id),
                )
            )


def _rule_unbounded_support(cfg: CFG, out: List[Diagnostic]) -> None:
    """REP006: sampling variables with unbounded support.

    Tail (concentration) analysis needs an almost-sure step-difference
    bound, and the bounded-update side condition of Theorem 6.10 needs
    finite support; both are statically impossible here, so
    ``analyze(tails=True)`` will degrade to a warning.
    """
    used = set()
    for label in cfg:
        if isinstance(label, AssignLabel):
            used |= label.expr.variables()
        elif isinstance(label, TickLabel):
            used |= label.cost.variables()
    for name in sorted(cfg.rvars):
        dist = cfg.rvars[name]
        if name not in used:
            continue  # dead sampling variable: REP009's business
        if not dist.is_bounded():
            lo, hi = dist.support_bounds()
            out.append(
                Diagnostic.of(
                    "REP006",
                    f"sampling variable {name!r} ~ {dist!r} has unbounded support "
                    f"[{lo:g}, {hi:g}]; tail bounds and the bounded-update side "
                    "condition are unavailable",
                )
            )


def _rule_nondet_cap(cfg: CFG, out: List[Diagnostic]) -> None:
    """REP007: nondet label count exceeds the PLCS enumeration cap.

    Pre-reports (from the static label count, before any template or LP
    work) what synthesis would only discover after assembly: lower-bound
    policy enumeration falls back to the all-then policy.
    """
    from ..core.synthesis import _MAX_NONDET_ENUMERATION

    count = len(cfg.nondet_labels())
    if count > _MAX_NONDET_ENUMERATION:
        out.append(
            Diagnostic.of(
                "REP007",
                f"{count} nondeterministic labels exceed the PLCS policy enumeration "
                f"cap of {_MAX_NONDET_ENUMERATION}; lower-bound synthesis will fall back to the "
                "all-then policy and may be suboptimal",
            )
        )


def _rule_static_loops(
    cfg: CFG, analysis: AbstractAnalysis, out: List[Diagnostic]
) -> None:
    """REP008: a loop whose body changes no variable, with a guard that
    can hold — once entered, the state never changes and the loop never
    exits (divergence, infinite expected cost if it ticks)."""
    ids = _stmt_label_ids(cfg)
    for stmt in cfg.program.statements():
        if not isinstance(stmt, While):
            continue
        body_assigns = any(
            isinstance(child, Assign)
            for child in _subtree(stmt.body)
        )
        if body_assigns:
            continue
        label_id = ids.get(id(stmt))
        if label_id is None or not analysis.reachable(label_id):
            continue
        label = cfg.labels[label_id]
        true_ok, _ = analysis.branch_feasibility(label)
        if true_ok:
            out.append(
                Diagnostic.of(
                    "REP008",
                    f"loop body assigns no variable, so guard '{stmt.cond}' can never "
                    "change once it holds: the loop diverges",
                    **_where(cfg, label_id),
                )
            )


def _subtree(stmt) -> List:
    stack, seen = [stmt], []
    while stack:
        node = stack.pop()
        seen.append(node)
        stack.extend(node.children())
    return seen


def _rule_unused_vars(cfg: CFG, out: List[Diagnostic]) -> None:
    """REP009: declared variables the program never mentions."""
    used: Set[str] = set()
    for stmt in cfg.program.statements():
        if isinstance(stmt, Assign):
            used.add(stmt.var)
            used |= stmt.expr.variables()
        elif isinstance(stmt, Tick):
            used |= stmt.cost.variables()
        elif isinstance(stmt, (While, If)):
            used |= stmt.cond.variables()
    for var in cfg.pvars:
        if var not in used:
            out.append(Diagnostic.of("REP009", f"program variable {var!r} is never used"))
    for var in sorted(cfg.rvars):
        if var not in used:
            out.append(Diagnostic.of("REP009", f"sampling variable {var!r} is never used"))


def _excludes_every_state(analysis, label_id: int, region) -> bool:
    """Is ``region`` provably disjoint from the label's abstract state?

    True when every disjunct has a constraint that is negative over the
    whole state (an interval box or an octagon).  An unreachable label
    excludes nothing: any invariant is vacuously fine there.
    """
    if not analysis.reachable(label_id):
        return False
    return bool(region.disjuncts) and all(
        any(analysis.eval_poly(label_id, g).hi < -_TOL for g in polyhedron.constraints)
        for polyhedron in region.disjuncts
    )


def _rule_invariants(
    cfg: CFG,
    analysis: AbstractAnalysis,
    init: Mapping[str, float],
    invariants: Optional[InvariantMap],
    out: List[Diagnostic],
) -> None:
    """REP010: user-supplied invariants that exclude reachable states.

    Two sound refutations, both LP-free:

    * the concrete initial valuation reaches the entry label, so an
      entry invariant that excludes it is unsound outright;
    * at any label, an invariant region that is provably disjoint from
      the abstract box excludes every state the (sound) interval
      analysis admits there — if the label is reachable at all, the
      invariant's Gamma is wrong and will poison synthesis.
    """
    if invariants is None:
        return
    point = _full_init(cfg, init)
    for label_id, region in sorted(invariants.items()):
        if label_id == cfg.entry and not region.contains(point):
            out.append(
                Diagnostic.of(
                    "REP010",
                    f"invariant at entry label {label_id} excludes the initial "
                    f"valuation {point}: the annotation is unsound",
                    **_where(cfg, label_id),
                )
            )
            continue
        if _excludes_every_state(analysis, label_id, region):
            out.append(
                Diagnostic.of(
                    "REP010",
                    f"invariant at label {label_id} excludes every reachable state "
                    "(disjoint from the interval fixpoint): the annotation is unsound",
                    **_where(cfg, label_id),
                )
            )


def _rule_octagon_invariants(
    cfg: CFG,
    octagon: "OctagonAnalysis",
    init: Mapping[str, float],
    invariants: Optional[InvariantMap],
    out: List[Diagnostic],
) -> None:
    """REP013/REP014: user invariants vs. the inferred relational octagon.

    Only runs when the analysis was requested with
    ``invariant_domain="octagon"``.  Two findings:

    * REP013 (warning): every constraint of a (single-polyhedron) user
      invariant already holds throughout the label's octagon — the
      annotation is entailed by what the analysis infers on its own and
      can be dropped;
    * REP014 (error under strict): some user constraint is provably
      negative over the whole reachable octagon, i.e. the annotation
      contradicts every state the relational analysis admits.  This
      generalizes REP010 to relational facts (e.g. ``x - y >= 5`` when
      the octagon knows ``x <= y``); labels REP010 already refuted via
      the interval box are skipped so one unsound annotation yields one
      error.
    """
    if invariants is None:
        return
    point = _full_init(cfg, init)
    rep010_labels = {d.label for d in out if d.code == "REP010"}
    for label_id, region in sorted(invariants.items()):
        if label_id in rep010_labels:
            continue
        if label_id == cfg.entry and not region.contains(point):
            continue  # REP010's entry check already covers this shape
        if _excludes_every_state(octagon, label_id, region):
            out.append(
                Diagnostic.of(
                    "REP014",
                    f"invariant at label {label_id} excludes every reachable state "
                    "(disjoint from the octagon fixpoint): the annotation is unsound",
                    **_where(cfg, label_id),
                )
            )
            continue
        if len(region.disjuncts) != 1:
            continue  # entailment of a union is not a per-row check
        (polyhedron,) = region.disjuncts
        entailed = bool(polyhedron.constraints)
        for constraint in polyhedron.constraints:
            value = octagon.eval_poly(label_id, constraint)
            if value is None or value.lo < -_TOL:
                entailed = False
                break
        if entailed:
            out.append(
                Diagnostic.of(
                    "REP013",
                    f"invariant at label {label_id} is entailed by the inferred "
                    "octagon invariant; the annotation can be dropped",
                    **_where(cfg, label_id),
                )
            )


def _rule_degenerate_prob(cfg: CFG, out: List[Diagnostic]) -> None:
    """REP011: probabilistic branches taken with probability 0 or 1."""
    for label in cfg:
        if isinstance(label, ProbLabel) and label.prob in (0.0, 1.0):
            side = "else" if label.prob == 0.0 else "then"
            out.append(
                Diagnostic.of(
                    "REP011",
                    f"probabilistic branch with p={label.prob:g} always takes the "
                    f"{side}-branch; use a plain statement or 'if *' instead",
                    **_where(cfg, label.id),
                )
            )


def _rule_entry_guard(cfg: CFG, init: Mapping[str, float], out: List[Diagnostic]) -> None:
    """REP012: the program entry is a loop whose guard is false at the
    initial valuation — the whole program performs no work at ``v*``."""
    entry = cfg.labels[cfg.entry]
    if not isinstance(entry, BranchLabel) or not entry.is_loop_head:
        return
    if not entry.cond.evaluate(_full_init(cfg, init)):
        out.append(
            Diagnostic.of(
                "REP012",
                f"entry loop guard '{entry.cond}' is false at the initial valuation "
                f"{_full_init(cfg, init)}; the program performs no work",
                **_where(cfg, cfg.entry),
            )
        )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_rules(
    cfg: CFG,
    analysis: AbstractAnalysis,
    init: Mapping[str, float],
    invariants: Optional[InvariantMap] = None,
    octagon: Optional["OctagonAnalysis"] = None,
) -> List[Diagnostic]:
    """Run every lint rule; returns diagnostics in reading order.

    ``octagon`` — the relational fixpoint, when the caller analyzed
    with ``invariant_domain="octagon"`` — enables the REP013/REP014
    relational annotation checks; the default interval-only pass is
    byte-identical to previous releases.
    """
    out: List[Diagnostic] = []
    _rule_init_vars(cfg, init, out)
    _rule_uninitialized_reads(cfg, init, out)
    _rule_unreachable(cfg, analysis, out)
    _rule_dead_branches(cfg, analysis, out)
    _rule_dead_ticks(cfg, analysis, out)
    _rule_unbounded_support(cfg, out)
    _rule_nondet_cap(cfg, out)
    _rule_static_loops(cfg, analysis, out)
    _rule_unused_vars(cfg, out)
    _rule_invariants(cfg, analysis, init, invariants, out)
    if octagon is not None:
        _rule_octagon_invariants(cfg, octagon, init, invariants, out)
    _rule_degenerate_prob(cfg, out)
    _rule_entry_guard(cfg, init, out)
    return sort_diagnostics(out)
