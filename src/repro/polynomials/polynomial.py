"""Sparse multivariate polynomials with numeric or symbolic coefficients.

This is the workhorse data structure of the whole pipeline:

* program arithmetic expressions (``<expr>``/``<pexpr>`` in Fig. 1 of the
  paper) are numeric polynomials over program and sampling variables;
* invariant constraints are numeric polynomials of degree at most 1;
* synthesis templates (Section 7, step (1)) are polynomials whose
  coefficients are :class:`~repro.polynomials.linform.LinForm` affine
  expressions in the LP unknowns ``a_ij``.

A polynomial is a sparse mapping from :class:`Monomial` to coefficient.
Coefficients may be ``float`` or ``LinForm``; the arithmetic helpers in
:mod:`repro.polynomials.linform` keep mixed arithmetic correct and raise
on operations (symbolic x symbolic products) that would leave the affine
fragment the LP reduction needs.

Internally the arithmetic methods accumulate into plain dicts and seal
the result through the trusted :meth:`Polynomial._raw` constructor; only
the public ``__init__`` re-validates keys, so building a polynomial from
``k`` operations costs ``O(terms)`` instead of ``O(terms * k)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple, Union

from ..errors import ZERO_TOL, NonLinearError
from .linform import Coeff, LinForm, cadd, cis_zero, cmul, cneg
from .monomial import Monomial

__all__ = ["Polynomial"]

Scalar = Union[int, float]
_ZERO_TOL = ZERO_TOL


def _acc(table: Dict[Monomial, Coeff], mono: Monomial, coeff: Coeff) -> None:
    """Accumulate ``coeff * mono`` into a mutable term table."""
    existing = table.get(mono)
    table[mono] = coeff if existing is None else cadd(existing, coeff)


def _prune_table(table: Dict[Monomial, Coeff]) -> Dict[Monomial, Coeff]:
    """Delete exactly-zero coefficients (cancellations) in place."""
    dead = [m for m, c in table.items() if cis_zero(c)]
    for m in dead:
        del table[m]
    return table


class Polynomial:
    """A sparse multivariate polynomial ``sum(coeff * monomial)``."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Coeff] | Iterable[Tuple[Monomial, Coeff]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms: Dict[Monomial, Coeff] = {}
        for mono, coeff in items:
            if not isinstance(mono, Monomial):
                raise TypeError(f"expected Monomial key, got {type(mono).__name__}")
            if not cis_zero(coeff):
                existing = self._terms.get(mono)
                self._terms[mono] = coeff if existing is None else cadd(existing, coeff)
        self._prune()

    def _prune(self) -> None:
        dead = [m for m, c in self._terms.items() if cis_zero(c)]
        for m in dead:
            del self._terms[m]

    # -- constructors ---------------------------------------------------

    @classmethod
    def _raw(cls, terms: Dict[Monomial, Coeff]) -> "Polynomial":
        """Trusted constructor: takes ownership of ``terms``.

        Keys must already be :class:`Monomial` instances and values
        nonzero coefficients — callers accumulate via :func:`_acc` and
        prune cancellations themselves.  This is the internal fast path;
        external code should use the validating ``__init__``.
        """
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({})

    @classmethod
    def constant(cls, value: Coeff) -> "Polynomial":
        return cls({Monomial.one(): value})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls._raw({Monomial.variable(name): 1.0})

    @classmethod
    def monomial(cls, mono: Monomial, coeff: Coeff = 1.0) -> "Polynomial":
        return cls({mono: coeff})

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[str, Scalar], const: Scalar = 0.0) -> "Polynomial":
        """Linear polynomial ``const + sum(coeffs[v] * v)`` — handy for invariants."""
        terms: Dict[Monomial, Coeff] = {Monomial.one(): float(const)}
        for var, coeff in coeffs.items():
            terms[Monomial.variable(var)] = float(coeff)
        return cls(terms)

    # -- inspection -----------------------------------------------------

    def terms(self) -> Iterator[Tuple[Monomial, Coeff]]:
        return iter(self._terms.items())

    def monomials(self) -> Iterator[Monomial]:
        return iter(self._terms)

    def coeff(self, mono: Monomial) -> Coeff:
        """Coefficient of ``mono`` (0.0 if absent)."""
        return self._terms.get(mono, 0.0)

    def constant_term(self) -> Coeff:
        return self.coeff(Monomial.one())

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0."""
        if not self._terms:
            return 0
        return max(m.degree() for m in self._terms)

    def degree_in(self, var: str) -> int:
        if not self._terms:
            return 0
        return max((m.degree_in(var) for m in self._terms), default=0)

    def variables(self) -> frozenset:
        out: set = set()
        for m in self._terms:
            out |= m.variables()
        return frozenset(out)

    def unknowns(self) -> frozenset:
        """LP unknowns occurring in any symbolic coefficient."""
        out: set = set()
        for c in self._terms.values():
            if isinstance(c, LinForm):
                out |= c.unknowns()
        return frozenset(out)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(cis_zero(c, tol) for c in self._terms.values())

    def is_constant(self) -> bool:
        return all(m.is_constant() for m in self._terms)

    def is_numeric(self) -> bool:
        """True iff no coefficient is symbolic."""
        return not any(isinstance(c, LinForm) for c in self._terms.values())

    def is_linear(self) -> bool:
        """Degree at most 1 (affine)."""
        return self.degree() <= 1

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: Union["Polynomial", Scalar, LinForm]) -> "Polynomial":
        if isinstance(other, (int, float, LinForm)):
            if cis_zero(other):
                return self
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            existing = terms.get(mono)
            if existing is None:
                terms[mono] = coeff
            else:
                merged = cadd(existing, coeff)
                if cis_zero(merged):
                    del terms[mono]
                else:
                    terms[mono] = merged
        return Polynomial._raw(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: cneg(c) for m, c in self._terms.items()})

    def __sub__(self, other: Union["Polynomial", Scalar, LinForm]) -> "Polynomial":
        if isinstance(other, (int, float, LinForm)):
            if cis_zero(other):
                return self
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            existing = terms.get(mono)
            if existing is None:
                terms[mono] = cneg(coeff)
            else:
                merged = cadd(existing, cneg(coeff))
                if cis_zero(merged):
                    del terms[mono]
                else:
                    terms[mono] = merged
        return Polynomial._raw(terms)

    def __rsub__(self, other: Union[Scalar, LinForm]) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: Union["Polynomial", Scalar, LinForm]) -> "Polynomial":
        if isinstance(other, (int, float, LinForm)):
            if cis_zero(other):
                return Polynomial._raw({})
            return Polynomial._raw({m: cmul(c, other) for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms: Dict[Monomial, Coeff] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                _acc(terms, m1 * m2, cmul(c1, c2))
        return Polynomial._raw(_prune_table(terms))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Polynomial":
        return self * (1.0 / float(other))

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("polynomials cannot be raised to negative powers")
        result = Polynomial.constant(1.0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- substitution and evaluation ----------------------------------------

    def contains_variable(self, var: str) -> bool:
        """True iff ``var`` occurs with positive exponent in some term.

        Short-circuits over the monomials instead of materialising the
        full :meth:`variables` set.
        """
        return any(m.degree_in(var) for m in self._terms)

    def substitute(self, var: str, replacement: "Polynomial") -> "Polynomial":
        """Replace every occurrence of ``var`` by ``replacement``.

        Single pass: every term's expansion is accumulated into one
        shared coefficient table.  Powers of ``replacement`` are cached
        so that the common case (a degree-``d`` template composed with
        an update expression) stays cheap.
        """
        if not self.contains_variable(var):
            return self
        powers: Dict[int, Polynomial] = {1: replacement}

        def power(k: int) -> Polynomial:
            if k not in powers:
                powers[k] = power(k - 1) * replacement
            return powers[k]

        out: Dict[Monomial, Coeff] = {}
        for mono, coeff in self._terms.items():
            exp = mono.degree_in(var)
            if exp == 0:
                _acc(out, mono, coeff)
                continue
            rest = mono.without(var)
            for m2, c2 in power(exp)._terms.items():
                _acc(out, rest * m2, cmul(coeff, c2))
        return Polynomial._raw(_prune_table(out))

    def substitute_all(self, mapping: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Simultaneous substitution of several variables.

        Simultaneity matters when replacements mention substituted
        variables (e.g. swapping ``x`` and ``y``); each original term is
        expanded against the *original* monomial in one pass, so later
        substitutions never see earlier replacements.
        """
        relevant = {v for v in mapping if self.contains_variable(v)}
        if not relevant:
            return self
        powers: Dict[Tuple[str, int], Polynomial] = {}

        def power(var: str, k: int) -> Polynomial:
            cached = powers.get((var, k))
            if cached is None:
                cached = mapping[var] if k == 1 else power(var, k - 1) * mapping[var]
                powers[(var, k)] = cached
            return cached

        out: Dict[Monomial, Coeff] = {}
        for mono, coeff in self._terms.items():
            substituted = [(v, e) for v, e in mono.powers if v in relevant]
            if not substituted:
                _acc(out, mono, coeff)
                continue
            rest = Monomial._of(tuple(p for p in mono.powers if p[0] not in relevant))
            piece = Polynomial._raw({rest: coeff})
            for v, e in substituted:
                piece = piece * power(v, e)
            for m2, c2 in piece._terms.items():
                _acc(out, m2, c2)
        return Polynomial._raw(_prune_table(out))

    def evaluate(self, valuation: Mapping[str, float]) -> Coeff:
        """Value under a total valuation of all variables.

        Returns a ``float`` for numeric polynomials and a ``LinForm``
        for templates.
        """
        total: Coeff = 0.0
        for mono, coeff in self._terms.items():
            total = cadd(total, cmul(coeff, mono.evaluate(valuation)))
        return total

    def evaluate_numeric(self, valuation: Mapping[str, float]) -> float:
        value = self.evaluate(valuation)
        if isinstance(value, LinForm):
            if not value.is_constant():
                raise NonLinearError("polynomial still contains unsolved LP unknowns")
            return value.const
        return float(value)

    def partial_evaluate(self, valuation: Mapping[str, float]) -> "Polynomial":
        """Fix some variables to numbers, leaving the rest symbolic."""
        return self.substitute_all(
            {var: Polynomial.constant(float(value)) for var, value in valuation.items()}
        )

    def map_coeffs(self, fn) -> "Polynomial":
        """Apply ``fn`` to every coefficient (used to instantiate templates)."""
        out: Dict[Monomial, Coeff] = {}
        for m, c in self._terms.items():
            mapped = fn(c)
            if not cis_zero(mapped):
                out[m] = mapped
        return Polynomial._raw(out)

    def instantiate(self, assignment: Mapping[str, float]) -> "Polynomial":
        """Replace symbolic coefficients by their solved numeric values."""

        def solve(c: Coeff) -> float:
            if isinstance(c, LinForm):
                return c.evaluate(assignment)
            return float(c)

        return self.map_coeffs(solve)

    def round(self, ndigits: int = 9) -> "Polynomial":
        """Round numeric coefficients (cosmetic; for printing and tests)."""

        def rnd(c: Coeff) -> Coeff:
            if isinstance(c, LinForm):
                return LinForm(
                    round(c.const, ndigits),
                    {n: round(v, ndigits) for n, v in c.terms.items()},
                )
            return round(float(c), ndigits)

        return self.map_coeffs(rnd)

    # -- comparison and printing -------------------------------------------

    def almost_equal(self, other: "Polynomial", tol: float = 1e-7) -> bool:
        """Numeric coefficient-wise comparison with tolerance."""
        monos = set(self._terms) | set(other._terms)
        for mono in monos:
            a, b = self.coeff(mono), other.coeff(mono)
            if isinstance(a, LinForm) or isinstance(b, LinForm):
                raise NonLinearError("almost_equal requires numeric polynomials")
            if abs(float(a) - float(b)) > tol:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float)):
            other = Polynomial.constant(float(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        mine, theirs = self._terms, other._terms
        for coeffs in (mine, theirs):
            for c in coeffs.values():
                if isinstance(c, LinForm):
                    return (self - other).is_zero(_ZERO_TOL)
        # Numeric: ``(self - other).is_zero(ZERO_TOL)`` term by term,
        # without building the difference; a missing monomial counts as
        # 0 and ``not <=`` keeps a NaN difference unequal.
        for mono, a in mine.items():
            if not abs(float(a) - float(theirs.get(mono, 0.0))) <= _ZERO_TOL:
                return False
        for mono, b in theirs.items():
            if mono not in mine and not abs(float(b)) <= _ZERO_TOL:
                return False
        return True

    def __hash__(self) -> int:
        items = tuple(sorted(self._terms.items(), key=lambda kv: kv[0]))
        return hash(items)

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono in sorted(self._terms, reverse=True):
            coeff = self._terms[mono]
            if isinstance(coeff, LinForm):
                body = f"({coeff})"
                text = body if mono.is_constant() else f"{body}*{mono}"
                parts.append(("+", text))
                continue
            value = float(coeff)
            sign = "+" if value >= 0 else "-"
            mag = abs(value)
            if mono.is_constant():
                text = f"{mag:g}"
            elif mag == 1.0:
                text = str(mono)
            else:
                text = f"{mag:g}*{mono}"
            parts.append((sign, text))
        first_sign, first_text = parts[0]
        out = first_text if first_sign == "+" else f"-{first_text}"
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        return out
