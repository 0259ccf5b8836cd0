"""Forward abstract interpretation over the probabilistic CFG.

This is the shared abstract-interpretation core of the reproduction:
the automatic invariant generator (:mod:`repro.invariants.generator`)
and the lint pass (:mod:`repro.check.rules`) both run it.  It holds
the one fixpoint driver, :func:`fixpoint`, and the interval domain;
:mod:`repro.check.octagon` supplies the relational domain to the same
driver.

* The driver is a FIFO worklist that widens a label once it has
  changed :data:`WIDEN_AFTER` times, followed by descending (narrowing)
  passes that recover the guard-derived bounds widening destroyed.
* It is parametrised by a small domain object: the entry state, join,
  widen, equality, the per-edge transfer function, and ``close``, the
  normal form a stored state is read through (the identity for
  intervals, the strong closure for octagons).
* The interval domain keeps one interval per program variable at every
  label.  Assignments evaluate their polynomial over intervals
  (sampling variables contribute their distribution's support bounds),
  branch guards refine the intervals of the variables they bound, and
  probabilistic and nondeterministic branches propagate to both
  successors.
* The result is sound: every concretely reachable state at a label lies
  inside that label's abstract state (the property tests in
  ``tests/check`` exercise exactly this containment).

:class:`FixpointAnalysis` holds one fixpoint and the queries every
domain answers (``state``, ``reachable``, ``contains``);
:class:`AbstractAnalysis` adds what the lint rules need of intervals:
branch-edge feasibility and interval evaluation of polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..polynomials import Monomial, Polynomial
from ..semantics.cfg import (
    CFG,
    AssignLabel,
    BranchLabel,
    NondetLabel,
    ProbLabel,
    TickLabel,
)
from ..syntax.ast import Atom, BoolExpr

__all__ = ["AbstractAnalysis", "FixpointAnalysis", "Interval", "State", "analyze_cfg", "fixpoint"]

_INF = math.inf


class Interval:
    """A closed interval ``[lo, hi]`` (possibly unbounded).

    A plain ``__slots__`` class rather than a dataclass: the worklist
    iteration allocates intervals in its innermost loops and the frozen
    dataclass ``object.__setattr__`` construction showed up in profiles.
    Instances are treated as immutable by convention.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float = -_INF, hi: float = _INF):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def top(cls) -> "Interval":
        return _TOP

    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(value, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- lattice operations ------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, newer: "Interval") -> "Interval":
        """Standard interval widening: unstable bounds jump to infinity."""
        lo = self.lo if newer.lo >= self.lo else -_INF
        hi = self.hi if newer.hi <= self.hi else _INF
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> Optional["Interval"]:
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def __le__(self, other: "Interval") -> bool:
        return self.lo >= other.lo and self.hi <= other.hi

    def contains(self, value: float, tol: float = 1e-9) -> bool:
        return self.lo - tol <= value <= self.hi + tol

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, factor: float) -> "Interval":
        points = [factor * self.lo, factor * self.hi]
        points = [0.0 if math.isnan(p) else p for p in points]
        return Interval(min(points), max(points))

    def mul(self, other: "Interval") -> "Interval":
        products = []
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                p = a * b
                products.append(0.0 if math.isnan(p) else p)
        return Interval(min(products), max(products))

    def power(self, k: int) -> "Interval":
        result = Interval.point(1.0)
        for _ in range(k):
            result = result.mul(self)
        return result

    def __repr__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


_TOP = Interval()

State = Dict[str, Interval]


def _mul_bounds(alo: float, ahi: float, blo: float, bhi: float) -> Tuple[float, float]:
    """Interval product on raw floats (NaN from ``0 * inf`` maps to 0)."""
    lo = hi = None
    for a in (alo, ahi):
        for b in (blo, bhi):
            p = a * b
            if p != p:  # NaN
                p = 0.0
            if lo is None or p < lo:
                lo = p
            if hi is None or p > hi:
                hi = p
    return lo, hi


def _eval_poly(
    poly: Polynomial, state: State, rvar_bounds: Mapping[str, Tuple[float, float]]
) -> Interval:
    """Interval evaluation of a (numeric) polynomial.

    Works on raw float bounds instead of allocating an ``Interval`` per
    intermediate — this is the hottest spot of the worklist iteration.
    """
    total_lo = total_hi = 0.0
    for mono, coeff in poly.terms():
        term_lo = term_hi = 1.0
        for var, exp in mono:
            if var in rvar_bounds:
                base_lo, base_hi = rvar_bounds[var]
            else:
                interval = state.get(var)
                base_lo, base_hi = (
                    (interval.lo, interval.hi) if interval is not None else (-_INF, _INF)
                )
            pow_lo, pow_hi = 1.0, 1.0
            for _ in range(exp):
                pow_lo, pow_hi = _mul_bounds(pow_lo, pow_hi, base_lo, base_hi)
            term_lo, term_hi = _mul_bounds(term_lo, term_hi, pow_lo, pow_hi)
        c = float(coeff)
        scaled_lo, scaled_hi = _mul_bounds(term_lo, term_hi, c, c)
        total_lo += scaled_lo
        total_hi += scaled_hi
    return Interval(total_lo, total_hi)


def _linear_bound(atom: Atom) -> Optional[Tuple[str, float, float]]:
    """Decompose ``a*x + b >= 0`` into ``(x, a, b)`` if single-variable linear."""
    poly = atom.relaxed().poly
    if not poly.is_linear():
        return None
    variables = poly.variables()
    if len(variables) != 1:
        return None
    (var,) = variables
    a = float(poly.coeff(Monomial.variable(var)))
    b = float(poly.constant_term())
    if a == 0.0:
        return None
    return var, a, b


def _box_rows(state: Mapping[str, Interval]) -> List[Polynomial]:
    """Canonical ``p >= 0`` rows of one box: per variable in name order,
    the finite lower bound then the finite upper bound."""
    rows: List[Polynomial] = []
    for var, interval in sorted(state.items()):
        if math.isfinite(interval.lo):
            rows.append(Polynomial.variable(var) - interval.lo)
        if math.isfinite(interval.hi):
            rows.append(Polynomial.constant(interval.hi) - Polynomial.variable(var))
    return rows


def _join_states(a: State, b: State) -> State:
    keys = set(a) | set(b)
    return {k: a.get(k, Interval.top()).join(b.get(k, Interval.top())) for k in keys}


def _states_equal(a: Optional[State], b: Optional[State]) -> bool:
    if a is None or b is None:
        return a is b
    keys = set(a) | set(b)
    return all(a.get(k, Interval.top()) == b.get(k, Interval.top()) for k in keys)


class _Domain:
    """What the fixpoint driver needs of an abstract domain.

    One instance per analysis.  Subclasses supply the state operations
    — ``entry``, ``join``, ``widen``, ``equals``, ``contains`` — and the
    transfer primitives: ``assign``, ``assume`` (meet a conjunction of
    guard atoms) and ``_decompose`` (one guard atom to the form
    ``assume`` consumes, or ``None``).  ``close`` is the normal form a
    stored state is read through: the identity here, the strong closure
    for octagons, whose widened states are stored unclosed.

    The worklist revisits the same branch conditions dozens of times;
    DNF conversion and per-atom decomposition are pure functions of AST
    nodes that stay alive (referenced by the CFG) for the whole
    analysis, so they are memoised here by node identity.
    """

    def __init__(self, cfg: CFG):
        self.rvar_bounds = {name: dist.support_bounds() for name, dist in cfg.rvars.items()}
        self._dnf: Dict[Tuple[int, bool], list] = {}
        self._atoms: Dict[int, object] = {}

    def close(self, state):
        return state

    def atom(self, atom: Atom):
        """The domain's decomposition of one guard atom (memoised)."""
        key = id(atom)
        if key not in self._atoms:
            self._atoms[key] = self._decompose(atom)
        return self._atoms[key]

    def refine(self, state, cond: BoolExpr, assume_true: bool):
        """``state`` assuming ``cond`` is true (or false): the join of the
        DNF disjuncts' refinements, or ``None`` when the branch is
        provably unreachable."""
        key = (id(cond), assume_true)
        disjuncts = self._dnf.get(key)
        if disjuncts is None:
            disjuncts = cond.to_dnf() if assume_true else cond.negate().to_dnf()
            self._dnf[key] = disjuncts
        out = None
        for conj in disjuncts:
            refined = self.assume(state, conj)
            if refined is not None:
                out = refined if out is None else self.join(out, refined)
        return out

    def transfer(self, label, state) -> list:
        """The states flowing out of ``label`` along each edge."""
        if isinstance(label, AssignLabel):
            return [(label.succ, self.assign(state, label.var, label.expr))]
        if isinstance(label, BranchLabel):
            return [
                (label.succ_true, self.refine(state, label.cond, True)),
                (label.succ_false, self.refine(state, label.cond, False)),
            ]
        if isinstance(label, (ProbLabel, NondetLabel)):
            return [(label.succ_then, state), (label.succ_else, state)]
        if isinstance(label, TickLabel):
            return [(label.succ, state)]
        return []  # terminal


class _IntervalDomain(_Domain):
    """One interval per program variable at every label."""

    def __init__(self, cfg: CFG):
        super().__init__(cfg)
        self.pvars = cfg.pvars

    def entry(self, init: Mapping[str, float]) -> State:
        return {var: Interval.point(float(init.get(var, 0.0))) for var in self.pvars}

    join = staticmethod(_join_states)
    equals = staticmethod(_states_equal)
    _decompose = staticmethod(_linear_bound)

    @staticmethod
    def widen(old: State, merged: State) -> State:
        return {
            k: old.get(k, Interval.top()).widen(merged.get(k, Interval.top())) for k in merged
        }

    @staticmethod
    def contains(state: State, valuation: Mapping[str, float], tol: float) -> bool:
        return all(
            interval.contains(float(valuation.get(var, 0.0)), tol)
            for var, interval in state.items()
        )

    def assign(self, state: State, var: str, expr: Polynomial) -> State:
        new_state = dict(state)
        new_state[var] = _eval_poly(expr, state, self.rvar_bounds)
        return new_state

    def assume(self, state: State, conj) -> Optional[State]:
        """Meet the single-variable linear atoms of ``conj``; any other
        atom is ignored (a sound over-approximation)."""
        current = dict(state)
        for atom in conj:
            decomp = self.atom(atom)
            if decomp is None:
                continue
            var, a, b = decomp
            bound = -b / a
            limit = Interval(bound, _INF) if a > 0 else Interval(-_INF, bound)
            met = current.get(var, Interval.top()).meet(limit)
            if met is None:
                return None
            current[var] = met
        return current


#: The driver's fixed settings: a label is widened once it has changed
#: this many times, narrowing may take this many passes per CFG label,
#: and the ascending phase stops after this many worklist pops.
WIDEN_AFTER = 3
NARROW_PASSES = 3
MAX_ITERATIONS = 10_000


def fixpoint(cfg: CFG, init: Mapping[str, float], domain) -> Tuple[object, Dict[int, object]]:
    """The one worklist / widening / narrowing driver of every domain.

    Returns ``(entry state, {label id: closed state or None})``.  The
    ascending phase is a FIFO worklist that widens a label once it has
    changed :data:`WIDEN_AFTER` times.  Descending (narrowing) passes
    then recompute every label's state from its predecessors' stable
    states; each stays sound and recovers guard bounds widening
    destroyed.  A refinement travels one edge per pass, so passes repeat
    until stable (a fixed count under-narrows the loop heads of long
    loop bodies), capped in proportion to the CFG.
    """
    entry_state = domain.entry(init)
    states: Dict[int, object] = {label.id: None for label in cfg}
    visit_counts: Dict[int, int] = {label.id: 0 for label in cfg}
    states[cfg.entry] = entry_state

    worklist: List[int] = [cfg.entry]
    iterations = 0
    while worklist and iterations < MAX_ITERATIONS:
        iterations += 1
        label_id = worklist.pop(0)
        state = states[label_id]
        if state is None:
            continue
        closed = domain.close(state)
        if closed is None:
            continue
        for succ, new_state in domain.transfer(cfg.labels[label_id], closed):
            if new_state is None:
                continue
            old = states[succ]
            merged = new_state if old is None else domain.join(old, new_state)
            if old is not None and visit_counts[succ] >= WIDEN_AFTER:
                merged = domain.widen(old, merged)
            if old is None or not domain.equals(old, merged):
                states[succ] = merged
                visit_counts[succ] += 1
                if succ not in worklist:
                    worklist.append(succ)

    for _ in range(NARROW_PASSES * max(1, len(cfg.labels))):
        inflow: Dict[int, object] = {label.id: None for label in cfg}
        inflow[cfg.entry] = entry_state
        for label_id, state in states.items():
            if state is None:
                continue
            closed = domain.close(state)
            if closed is None:
                continue
            for succ, new_state in domain.transfer(cfg.labels[label_id], closed):
                if new_state is None:
                    continue
                old = inflow[succ]
                inflow[succ] = new_state if old is None else domain.join(old, new_state)
        stable = all(
            (states[label_id] is None) == (inflow[label_id] is None)
            and (states[label_id] is None or domain.equals(states[label_id], inflow[label_id]))
            for label_id in states
        )
        states = inflow
        if stable:
            break

    return entry_state, {
        label_id: None if state is None else domain.close(state)
        for label_id, state in states.items()
    }


@dataclass
class FixpointAnalysis:
    """The fixpoint of one analysis and the queries every domain answers.

    ``states`` maps every label id to its (closed) abstract state or
    ``None`` for labels the analysis proved unreachable.  All queries
    are over-approximating: "unreachable" and "infeasible" answers are
    proofs, "reachable" and "feasible" ones are not.
    """

    cfg: CFG
    init: Dict[str, float]
    entry_state: object
    states: Dict[int, object]
    domain: _Domain = field(repr=False)

    @classmethod
    def run(cls, cfg: CFG, init: Mapping[str, float], domain: _Domain):
        """The analysis of ``cfg`` in ``domain``; variables not mentioned
        by ``init`` start at 0 (matching the interpreter)."""
        entry_state, states = fixpoint(cfg, init, domain)
        init = {var: float(value) for var, value in init.items()}
        return cls(cfg=cfg, init=init, entry_state=entry_state, states=states, domain=domain)

    def state(self, label_id: int):
        return self.states.get(label_id)

    def reachable(self, label_id: int) -> bool:
        """False only when the label is *provably* unreachable."""
        return self.states.get(label_id) is not None

    def contains(self, label_id: int, valuation: Mapping[str, float], tol: float = 1e-9) -> bool:
        """Is the concrete ``valuation`` inside the label's state?

        The soundness property: every concretely reachable state must
        satisfy this (the property tests drive the interpreter against
        it).  An unreachable label contains nothing.
        """
        state = self.states.get(label_id)
        return state is not None and self.domain.contains(state, valuation, tol)


class AbstractAnalysis(FixpointAnalysis):
    """The interval fixpoint plus the lint rules' queries."""

    def branch_feasibility(self, label: BranchLabel) -> Tuple[bool, bool]:
        """(true-edge feasible, false-edge feasible) at ``label``.

        ``False`` is a proof that the edge is never taken from any
        state the abstract fixpoint admits at the label.
        """
        state = self.states.get(label.id)
        if state is None:
            return (False, False)
        return (
            self.domain.refine(state, label.cond, True) is not None,
            self.domain.refine(state, label.cond, False) is not None,
        )

    def eval_poly(self, label_id: int, poly: Polynomial) -> Optional[Interval]:
        """Interval value of ``poly`` over the label's abstract box."""
        state = self.states.get(label_id)
        if state is None:
            return None
        return _eval_poly(poly, state, self.domain.rvar_bounds)

    def constraints_at(self, label_id: int) -> Optional[List[Polynomial]]:
        """The label's box as canonical ``p >= 0`` Gamma rows (``None``
        for unreachable labels)."""
        state = self.states.get(label_id)
        return None if state is None else _box_rows(state)


def analyze_cfg(cfg: CFG, init: Mapping[str, float]) -> AbstractAnalysis:
    """Run the interval analysis from the initial valuation ``init``."""
    return AbstractAnalysis.run(cfg, init, _IntervalDomain(cfg))
