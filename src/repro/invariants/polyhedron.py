"""Polyhedra: conjunctions of linear constraints ``g(x) >= 0``.

Definition 6.1 of the paper uses invariants whose value at each label is
a finite union of polyhedra; in all of the paper's benchmarks (and ours)
a single polyhedron per label suffices, which is what the synthesis
algorithm consumes: the constraint list is exactly the set ``Gamma`` fed
to Handelman's theorem (Theorem 7.1).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Mapping

from ..errors import InvariantError, NonLinearError
from ..polynomials import Polynomial
from ..syntax.ast import BoolExpr

__all__ = ["Polyhedron", "Region"]


class Polyhedron:
    """The set ``{x | g(x) >= 0 for every g in constraints}``.

    An empty constraint list denotes the whole space (the trivial
    invariant ``true``).
    """

    def __init__(self, constraints: Iterable[Polynomial] = ()):
        self._constraints: List[Polynomial] = []
        for g in constraints:
            self._append(g)

    def _append(self, g: Polynomial) -> None:
        if not g.is_numeric():
            raise NonLinearError("polyhedron constraints must be numeric")
        if not g.is_linear():
            raise NonLinearError(f"polyhedron constraints must be linear, got degree {g.degree()}: {g}")
        if g.is_constant():
            value = float(g.constant_term())
            if value < 0:
                raise InvariantError(f"constant constraint {g} >= 0 is unsatisfiable")
            return  # trivially true; drop
        if any(g == existing for existing in self._constraints):
            return
        self._constraints.append(g)

    # -- constructors ---------------------------------------------------

    @classmethod
    def whole_space(cls) -> "Polyhedron":
        return cls()

    @classmethod
    def from_condition(cls, cond: BoolExpr) -> "Polyhedron":
        """Build from a *conjunctive* boolean expression.

        Strict atoms are relaxed to their non-strict closure, which is
        sound for constraint generation (the constraints must hold on a
        superset of the reachable states).
        """
        disjuncts = cond.to_dnf()
        if len(disjuncts) != 1:
            raise InvariantError(
                f"invariant conditions must be conjunctive; got {len(disjuncts)} disjuncts"
            )
        return cls(atom.relaxed().poly for atom in disjuncts[0])

    # -- inspection -----------------------------------------------------

    @property
    def constraints(self) -> List[Polynomial]:
        """The linear forms ``g`` with meaning ``g >= 0``."""
        return list(self._constraints)

    def is_whole_space(self) -> bool:
        return not self._constraints

    def variables(self) -> frozenset:
        out: set = set()
        for g in self._constraints:
            out |= g.variables()
        return frozenset(out)

    def contains(self, valuation: Mapping[str, float], tol: float = 1e-9) -> bool:
        """Membership test (with numeric slack)."""
        return all(g.evaluate_numeric(valuation) >= -tol for g in self._constraints)

    def __iter__(self) -> Iterator[Polynomial]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    # -- operations -------------------------------------------------------

    def conjoin(self, other: "Polyhedron") -> "Polyhedron":
        """Intersection of two polyhedra."""
        return Polyhedron(self._constraints + other.constraints)

    def __repr__(self) -> str:
        if not self._constraints:
            return "Polyhedron(true)"
        parts = " and ".join(f"{g} >= 0" for g in self._constraints)
        return f"Polyhedron({parts})"


class Region:
    """A finite union of polyhedra — the invariant values of Definition 6.1.

    Constraint generation emits one Handelman site per disjunct: a
    polynomial is nonnegative on a union iff it is nonnegative on every
    member.
    """

    def __init__(self, disjuncts: Iterable[Polyhedron] = ()):
        self._disjuncts: List[Polyhedron] = list(disjuncts)
        if not self._disjuncts:
            self._disjuncts = [Polyhedron.whole_space()]

    # -- constructors ---------------------------------------------------

    @classmethod
    def whole_space(cls) -> "Region":
        return cls([Polyhedron.whole_space()])

    @classmethod
    def from_condition(cls, cond: BoolExpr) -> "Region":
        """One polyhedron per DNF disjunct (strict atoms relaxed)."""
        disjuncts = cond.to_dnf()
        if not disjuncts:
            raise InvariantError("invariant condition is unsatisfiable (false)")
        return cls(Polyhedron(atom.relaxed().poly for atom in conj) for conj in disjuncts)

    @classmethod
    def of(cls, polyhedron: Polyhedron) -> "Region":
        return cls([polyhedron])

    # -- inspection -----------------------------------------------------

    @property
    def disjuncts(self) -> List[Polyhedron]:
        return list(self._disjuncts)

    def is_whole_space(self) -> bool:
        return any(p.is_whole_space() for p in self._disjuncts)

    def variables(self) -> frozenset:
        out: set = set()
        for p in self._disjuncts:
            out |= p.variables()
        return frozenset(out)

    def contains(self, valuation: Mapping[str, float], tol: float = 1e-9) -> bool:
        return any(p.contains(valuation, tol) for p in self._disjuncts)

    def __len__(self) -> int:
        return len(self._disjuncts)

    def __iter__(self) -> Iterator[Polyhedron]:
        return iter(self._disjuncts)

    # -- operations -------------------------------------------------------

    def conjoin(self, other: "Region") -> "Region":
        """Intersection of two unions (pairwise conjunction)."""
        return Region(a.conjoin(b) for a in self._disjuncts for b in other._disjuncts)

    def __repr__(self) -> str:
        return "Region(" + " or ".join(repr(p) for p in self._disjuncts) + ")"
