"""Forward octagon abstract interpretation over the probabilistic CFG.

The relational companion of :mod:`repro.check.interp`: where the
interval domain tracks one box per label, this domain tracks all
constraints of the form ``±x ±y <= c`` (plus the unary bounds
``±x <= c``) in a closed difference-bound matrix (DBM) per label.  The
paper's method consumes linear invariants as an *input* (it used the
Stanford Invariant Generator); this module is the reproduction's own
relational generator, so facts like ``n - x >= 0`` no longer have to be
hand-annotated before synthesis can use them as Gamma rows.

Representation (Miné's encoding): variable ``k`` of the octagon owns
the two signed indices ``2k`` (standing for ``+x_k``) and ``2k + 1``
(standing for ``-x_k``); entry ``m[i][j]`` upper-bounds ``V_i - V_j``
where ``V`` is the signed valuation.  Concretely:

* ``x <= c``      is ``m[2k][2k+1] = 2c``
* ``x >= c``      is ``m[2k+1][2k] = -2c``
* ``x + y <= c``  is ``m[2k][2l+1] = c``  (and its coherent mirror)
* ``x - y <= c``  is ``m[2k][2l] = c``    (and its coherent mirror)

The coherence invariant ``m[i][j] == m[bar(j)][bar(i)]`` (``bar`` flips
``2k <-> 2k+1``) is maintained by every constructor and mutator.

The domain plugs into the one fixpoint driver of
:mod:`repro.check.interp` (:func:`~repro.check.interp.fixpoint`): it
supplies the entry point, join, widening, equality, the per-edge
transfer functions and ``close``.  Distributions are abstracted to
their support and nondeterministic branches joined, as in the interval
domain, and the soundness contract is the same: every concretely
reachable state at a label satisfies every constraint of that label's
octagon (``tests/check/test_octagon.py`` drives the interpreter against
this containment).

Widened states are stored *unclosed* (closing a widened DBM can undo
the extrapolation and forfeit termination); the driver reads every
stored state through ``close``, on a copy, before using it as a
transfer input, and closes the final states it returns.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

from ..polynomials import Monomial, Polynomial
from ..semantics.cfg import CFG
from .interp import FixpointAnalysis, Interval, _box_rows, _Domain, _eval_poly

__all__ = ["Octagon", "OctagonAnalysis", "analyze_cfg_octagon"]

_INF = math.inf


class Octagon:
    """One abstract state: a DBM over ``2n`` signed variable indices.

    A plain ``__slots__`` class like :class:`~repro.check.interp.Interval`
    and for the same reason — the worklist allocates these in its inner
    loop.  Instances are treated as immutable once stored in the
    analysis; all mutators are only called on fresh copies.
    """

    __slots__ = ("vars", "index", "m", "closed")

    def __init__(self, variables: Tuple[str, ...], m: List[List[float]], closed: bool = False):
        self.vars = tuple(variables)
        self.index = {var: k for k, var in enumerate(self.vars)}
        self.m = m
        self.closed = closed

    # -- constructors ---------------------------------------------------

    @classmethod
    def top(cls, variables) -> "Octagon":
        variables = tuple(variables)
        n2 = 2 * len(variables)
        m = [[0.0 if i == j else _INF for j in range(n2)] for i in range(n2)]
        return cls(variables, m, closed=True)

    @classmethod
    def from_point(cls, variables, valuation: Mapping[str, float]) -> "Octagon":
        """The octagon of one concrete point (the entry state)."""
        oct_ = cls.top(variables)
        for k, var in enumerate(oct_.vars):
            value = float(valuation.get(var, 0.0))
            oct_.m[2 * k][2 * k + 1] = 2.0 * value
            oct_.m[2 * k + 1][2 * k] = -2.0 * value
        oct_.closed = False
        closed = oct_.close()
        assert closed is not None  # a point is never empty
        return closed

    def copy(self) -> "Octagon":
        return Octagon(self.vars, [row[:] for row in self.m], closed=self.closed)

    # -- basic structure ------------------------------------------------

    def set_bound(self, i: int, j: int, c: float) -> None:
        """Tighten ``V_i - V_j <= c`` (coherent mirror included)."""
        if c < self.m[i][j]:
            self.m[i][j] = c
            self.m[j ^ 1][i ^ 1] = c
            self.closed = False

    def forget(self, k: int) -> None:
        """Project out variable ``k`` (call on a *closed* matrix, so
        relations among the other variables survive via closure)."""
        a, b = 2 * k, 2 * k + 1
        n2 = 2 * len(self.vars)
        for i in range(n2):
            self.m[i][a] = self.m[i][b] = _INF
            self.m[a][i] = self.m[b][i] = _INF
        self.m[a][a] = self.m[b][b] = 0.0

    # -- closure --------------------------------------------------------

    def close(self) -> Optional["Octagon"]:
        """The strong closure, or ``None`` when the octagon is empty.

        Floyd–Warshall shortest paths over the ``2n`` signed indices,
        then one strengthening step ``m[i][j] <- min(m[i][j],
        (m[i][bar(i)] + m[bar(j)][j]) / 2)``.  On a coherent matrix one
        pass of each already gives the strong closure (Bagnara, Hill,
        Zaffanella, "Weakly-relational shapes for numeric abstractions",
        FMSD 2009): strengthening never changes the ``m[i][bar(i)]``
        entries it reads, and its results need no further path
        propagation.
        """
        if self.closed:
            return self
        n2 = 2 * len(self.vars)
        m = [row[:] for row in self.m]
        for k in range(n2):
            mk = m[k]
            for i in range(n2):
                mik = m[i][k]
                if mik == _INF:
                    continue
                row = m[i]
                for j in range(n2):
                    alt = mik + mk[j]
                    if alt < row[j]:
                        row[j] = alt
        for i in range(n2):
            half_i = m[i][i ^ 1]
            if half_i == _INF:
                continue
            row = m[i]
            for j in range(n2):
                alt = (half_i + m[j ^ 1][j]) / 2.0
                if alt < row[j]:
                    row[j] = alt
        for i in range(n2):
            if m[i][i] < 0.0:
                return None
            m[i][i] = 0.0
        return Octagon(self.vars, m, closed=True)

    # -- lattice operations ---------------------------------------------

    def join(self, other: "Octagon") -> "Octagon":
        """Entrywise max of the closed forms (octagon union hull)."""
        a, b = self.close(), other.close()
        if a is None:
            return b if b is not None else self
        if b is None:
            return a
        m = [
            [max(x, y) for x, y in zip(row_a, row_b)]
            for row_a, row_b in zip(a.m, b.m)
        ]
        return Octagon(self.vars, m, closed=True)

    def widen(self, newer: "Octagon") -> "Octagon":
        """Standard DBM widening: unstable entries jump to infinity.

        Uses *this* (possibly unclosed) matrix as the reference — the
        result is deliberately not closed, which is what guarantees
        termination of the ascending phase.
        """
        m = [
            [old if new <= old else _INF for old, new in zip(row_old, row_new)]
            for row_old, row_new in zip(self.m, newer.m)
        ]
        return Octagon(self.vars, m, closed=False)

    def equals(self, other: "Octagon") -> bool:
        return self.vars == other.vars and self.m == other.m

    # -- queries (on closed matrices) -----------------------------------

    def interval_of(self, var: str) -> Interval:
        """The unary bounds of ``var`` (tightest when closed)."""
        k = self.index[var]
        return Interval(-self.m[2 * k + 1][2 * k] / 2.0, self.m[2 * k][2 * k + 1] / 2.0)

    def box(self) -> Dict[str, Interval]:
        """The interval projection (an :mod:`.interp`-style state)."""
        return {var: self.interval_of(var) for var in self.vars}

    def sum_bounds(self, va: str, vb: str) -> Tuple[float, float]:
        """Bounds ``lo <= va + vb <= hi`` from the DBM."""
        a, b = self.index[va], self.index[vb]
        return (-self.m[2 * a + 1][2 * b], self.m[2 * a][2 * b + 1])

    def diff_bounds(self, va: str, vb: str) -> Tuple[float, float]:
        """Bounds ``lo <= va - vb <= hi`` from the DBM."""
        a, b = self.index[va], self.index[vb]
        return (-self.m[2 * b][2 * a], self.m[2 * a][2 * b])

    def contains(self, valuation: Mapping[str, float], tol: float = 1e-9) -> bool:
        """Does the concrete point satisfy every constraint?

        ``tol`` is absolute, per DBM entry (unary entries carry doubled
        bounds, so the effective per-variable slack matches the interval
        domain's).
        """
        signed: List[float] = []
        for var in self.vars:
            value = float(valuation.get(var, 0.0))
            signed.append(value)
            signed.append(-value)
        n2 = len(signed)
        for i in range(n2):
            vi = signed[i]
            row = self.m[i]
            for j in range(n2):
                bound = row[j]
                if bound != _INF and vi - signed[j] > bound + tol:
                    return False
        return True

    def __repr__(self) -> str:
        parts = []
        for var in self.vars:
            iv = self.interval_of(var)
            parts.append(f"{var} in {iv}")
        return f"Octagon({', '.join(parts)})"


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------


def _linear_parts(
    poly: Polynomial, rvar_bounds: Mapping[str, Tuple[float, float]], pvar_index: Mapping[str, int]
) -> Optional[Tuple[Dict[str, float], float, float]]:
    """Split a linear polynomial into program-variable coefficients and
    the interval of its variable-free remainder (constant + sampling
    variables over their support).  ``None`` when not linear."""
    coeffs: Dict[str, float] = {}
    g_lo = g_hi = 0.0
    for mono, coeff in poly.terms():
        c = float(coeff)
        if mono.degree() == 0:
            g_lo += c
            g_hi += c
            continue
        if mono.degree() != 1:
            return None
        ((var, _),) = tuple(mono)
        if var in pvar_index:
            coeffs[var] = coeffs.get(var, 0.0) + c
            continue
        lo, hi = rvar_bounds.get(var, (-_INF, _INF))
        add_lo, add_hi = (c * lo, c * hi) if c >= 0.0 else (c * hi, c * lo)
        g_lo += add_lo
        g_hi += add_hi
    if math.isnan(g_lo) or math.isnan(g_hi):
        return None
    return coeffs, g_lo, g_hi


def _shift(oct_: Octagon, k: int, g_lo: float, g_hi: float) -> None:
    """Exact transfer of ``x_k := x_k + g`` with ``g in [g_lo, g_hi]``."""
    a, b = 2 * k, 2 * k + 1
    n2 = 2 * len(oct_.vars)
    for i in range(n2):
        ti = 1 if i == a else (-1 if i == b else 0)
        row = oct_.m[i]
        for j in range(n2):
            if i == j:
                continue
            d = ti - (1 if j == a else (-1 if j == b else 0))
            if d == 0 or row[j] == _INF:
                continue
            row[j] = row[j] + (g_hi * d if d > 0 else g_lo * d)
    oct_.closed = False


def _swap_sign(oct_: Octagon, k: int) -> None:
    """In-place ``x_k := -x_k``: swap the two signed indices of ``k``."""
    a, b = 2 * k, 2 * k + 1
    oct_.m[a], oct_.m[b] = oct_.m[b], oct_.m[a]
    for row in oct_.m:
        row[a], row[b] = row[b], row[a]


def _assign(
    state: Octagon,
    var: str,
    expr: Polynomial,
    rvar_bounds: Mapping[str, Tuple[float, float]],
) -> Optional[Octagon]:
    """The abstract assignment ``var := expr`` on a *closed* state."""
    oct_ = state.copy()
    k = oct_.index[var]
    parts = _linear_parts(expr, rvar_bounds, oct_.index) if expr.is_linear() else None
    if parts is not None:
        coeffs, g_lo, g_hi = parts
        a_self = coeffs.pop(var, 0.0)
        others = {v: c for v, c in coeffs.items() if c != 0.0}
        if not others and a_self == 1.0:
            _shift(oct_, k, g_lo, g_hi)
            return oct_
        if not others and a_self == -1.0:
            _swap_sign(oct_, k)
            _shift(oct_, k, g_lo, g_hi)
            return oct_
        if not others and a_self == 0.0:
            oct_.forget(k)
            if g_hi != _INF:
                oct_.set_bound(2 * k, 2 * k + 1, 2.0 * g_hi)
            if g_lo != -_INF:
                oct_.set_bound(2 * k + 1, 2 * k, -2.0 * g_lo)
            oct_.closed = False
            return oct_
        if a_self == 0.0 and len(others) == 1:
            ((other, a_other),) = others.items()
            if a_other in (1.0, -1.0):
                # x := +-y + g: forget x, then pin its relation to y.
                ell = oct_.index[other]
                oct_.forget(k)
                if a_other == 1.0:
                    if g_hi != _INF:  # x - y <= g_hi
                        oct_.set_bound(2 * k, 2 * ell, g_hi)
                    if g_lo != -_INF:  # y - x <= -g_lo
                        oct_.set_bound(2 * ell, 2 * k, -g_lo)
                else:
                    if g_hi != _INF:  # x + y <= g_hi
                        oct_.set_bound(2 * k, 2 * ell + 1, g_hi)
                    if g_lo != -_INF:  # -x - y <= -g_lo
                        oct_.set_bound(2 * k + 1, 2 * ell, -g_lo)
                oct_.closed = False
                return oct_
    # General fallback: interval-evaluate over the box projection, then
    # forget the target's relations and keep only its unary bounds.
    value = _eval_poly(expr, state.box(), rvar_bounds)
    oct_.forget(k)
    if value.hi != _INF:
        oct_.set_bound(2 * k, 2 * k + 1, 2.0 * value.hi)
    if value.lo != -_INF:
        oct_.set_bound(2 * k + 1, 2 * k, -2.0 * value.lo)
    oct_.closed = False
    return oct_


def _apply_atom(oct_: Octagon, decomp) -> None:
    """Meet one decomposed guard atom into ``oct_`` (in place).

    ``decomp`` is the output of :func:`_octagon_atom`; ``None`` (the
    atom is not octagon-expressible) is skipped, which is sound.
    """
    if decomp is None:
        return
    kind, payload = decomp
    if kind == "unary":
        k, lower, bound = payload
        if lower:  # x >= bound
            oct_.set_bound(2 * k + 1, 2 * k, -2.0 * bound)
        else:  # x <= bound
            oct_.set_bound(2 * k, 2 * k + 1, 2.0 * bound)
        return
    s1, k, s2, ell, c = payload  # s1*x_k + s2*x_l <= c
    if s1 > 0 and s2 > 0:
        oct_.set_bound(2 * k, 2 * ell + 1, c)
    elif s1 > 0:
        oct_.set_bound(2 * k, 2 * ell, c)
    elif s2 > 0:
        oct_.set_bound(2 * ell, 2 * k, c)
    else:
        oct_.set_bound(2 * k + 1, 2 * ell, c)


def _octagon_atom(atom, pvar_index: Mapping[str, int]):
    """Decompose a guard atom into an octagon constraint, if it is one.

    Handles exactly the atoms the domain can represent: single-variable
    linear bounds (matching the interval domain's refinement) and
    two-variable linear atoms whose coefficients have equal magnitude
    (``x + y <= c``, ``i - j >= 0``, ...).  Anything else — strict
    inequalities are relaxed first — is skipped, which is sound.
    """
    poly = atom.relaxed().poly
    if not poly.is_linear():
        return None
    variables = sorted(poly.variables())
    if not all(var in pvar_index for var in variables):
        return None
    b = float(poly.constant_term())
    if len(variables) == 1:
        (var,) = variables
        a = float(poly.coeff(Monomial.variable(var)))
        if a == 0.0:
            return None
        # a*x + b >= 0
        k = pvar_index[var]
        return ("unary", (k, a > 0.0, -b / a))
    if len(variables) == 2:
        va, vb = variables
        a1 = float(poly.coeff(Monomial.variable(va)))
        a2 = float(poly.coeff(Monomial.variable(vb)))
        if a1 == 0.0 or abs(a1) != abs(a2):
            return None
        # a1*x + a2*y + b >= 0  <=>  (-a1/s)*x + (-a2/s)*y <= b/s, s = |a1|
        s = abs(a1)
        return ("binary", (-a1 / s, pvar_index[va], -a2 / s, pvar_index[vb], b / s))
    return None


class _OctagonDomain(_Domain):
    """One closed difference-bound matrix per label."""

    def __init__(self, cfg: CFG):
        super().__init__(cfg)
        self.variables = tuple(sorted(cfg.pvars))
        self.index = {var: k for k, var in enumerate(self.variables)}

    def entry(self, init: Mapping[str, float]) -> Octagon:
        return Octagon.from_point(self.variables, init)

    def close(self, state: Octagon) -> Optional[Octagon]:
        return state.close()

    @staticmethod
    def join(a: Octagon, b: Octagon) -> Octagon:
        return a.join(b)

    @staticmethod
    def widen(old: Octagon, merged: Octagon) -> Octagon:
        return old.widen(merged)

    @staticmethod
    def equals(a: Octagon, b: Octagon) -> bool:
        return a.equals(b)

    contains = staticmethod(Octagon.contains)

    def _decompose(self, atom):
        return _octagon_atom(atom, self.index)

    def assign(self, state: Octagon, var: str, expr: Polynomial) -> Octagon:
        return _assign(state, var, expr, self.rvar_bounds)

    def assume(self, state: Octagon, conj) -> Optional[Octagon]:
        """Meet the octagon-expressible atoms of ``conj`` into a *closed*
        state; any other atom is skipped (sound)."""
        current = state.copy()
        for atom in conj:
            _apply_atom(current, self.atom(atom))
        return current.close()


# ---------------------------------------------------------------------------
# The analysis
# ---------------------------------------------------------------------------


class OctagonAnalysis(FixpointAnalysis):
    """The octagon fixpoint plus rule/Gamma queries.

    ``states`` maps every label id to its *closed* octagon or ``None``
    for labels the analysis proved unreachable.
    """

    def eval_poly(self, label_id: int, poly: Polynomial) -> Optional[Interval]:
        """Bounds of ``poly`` over the label's octagon.

        Exact (DBM entries) for linear polynomials over one variable or
        two variables with equal-magnitude coefficients; any other shape
        falls back to interval evaluation over the box projection —
        still sound, since the box contains the octagon.
        """
        state = self.states.get(label_id)
        if state is None:
            return None
        if poly.is_linear():
            parts = _linear_parts(poly, self.domain.rvar_bounds, state.index)
            if parts is not None:
                coeffs, g_lo, g_hi = parts
                live = {v: c for v, c in coeffs.items() if c != 0.0}
                if len(live) == 1:
                    ((var, a),) = live.items()
                    scaled = state.interval_of(var).scale(a)
                    return Interval(scaled.lo + g_lo, scaled.hi + g_hi)
                if len(live) == 2:
                    (va, a1), (vb, a2) = sorted(live.items())
                    if abs(a1) == abs(a2):
                        # Bounds of the unit form (+-va +-vb), then scale
                        # by the common positive magnitude and shift by g.
                        s = abs(a1)
                        if a1 > 0 and a2 > 0:
                            lo, hi = state.sum_bounds(va, vb)
                        elif a1 > 0:
                            lo, hi = state.diff_bounds(va, vb)
                        elif a2 > 0:
                            lo, hi = state.diff_bounds(vb, va)
                        else:
                            sum_lo, sum_hi = state.sum_bounds(va, vb)
                            lo, hi = -sum_hi, -sum_lo
                        return Interval(s * lo + g_lo, s * hi + g_hi)
        return _eval_poly(poly, state.box(), self.domain.rvar_bounds)

    def constraints_at(self, label_id: int) -> Optional[List[Polynomial]]:
        """The label's octagon as canonical ``p >= 0`` Gamma rows.

        ``None`` for unreachable labels.  Rows come out deduplicated and
        in a canonical order (unary bounds per variable, then binary
        constraints per sorted variable pair); binary rows entailed by
        the unary bounds alone are suppressed, so annotating with the
        octagon never bloats the Handelman products with redundancies.
        """
        state = self.states.get(label_id)
        if state is None:
            return None
        box = state.box()
        rows = _box_rows(box)
        ordered = sorted(state.vars)
        for a_pos, va in enumerate(ordered):
            for vb in ordered[a_pos + 1 :]:
                pa, pb = Polynomial.variable(va), Polynomial.variable(vb)
                sum_lo, sum_hi = state.sum_bounds(va, vb)
                diff_lo, diff_hi = state.diff_bounds(va, vb)
                if math.isfinite(sum_lo) and sum_lo > box[va].lo + box[vb].lo:
                    rows.append(pa + pb - sum_lo)  # va + vb >= sum_lo
                if math.isfinite(sum_hi) and sum_hi < box[va].hi + box[vb].hi:
                    rows.append(Polynomial.constant(sum_hi) - pa - pb)
                if math.isfinite(diff_lo) and diff_lo > box[va].lo - box[vb].hi:
                    rows.append(pa - pb - diff_lo)  # va - vb >= diff_lo
                if math.isfinite(diff_hi) and diff_hi < box[va].hi - box[vb].lo:
                    rows.append(Polynomial.constant(diff_hi) - pa + pb)
        return rows


def analyze_cfg_octagon(cfg: CFG, init: Mapping[str, float]) -> OctagonAnalysis:
    """Run the octagon analysis from the initial valuation ``init``."""
    return OctagonAnalysis.run(cfg, init, _OctagonDomain(cfg))
