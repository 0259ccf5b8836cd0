"""Handelman certificates (Theorem 7.1; Section 7, step (3)).

Handelman's theorem: if ``g > 0`` on the compact polyhedron
``<Gamma> = {x | gamma(x) >= 0 for gamma in Gamma}`` (``Gamma`` a set of
linear forms), then ``g = sum_k c_k f_k`` with ``c_k > 0`` and each
``f_k`` a finite product of elements of ``Gamma``.

The synthesis algorithm uses the theorem in the *sufficient* direction:
writing a target polynomial in the form ``sum c_k f_k`` with ``c_k >= 0``
certifies ``g >= 0`` on ``<Gamma>`` regardless of compactness.  Fixing a
cap ``K`` on the number of multiplicands makes the certificate space
finite; matching monomial coefficients of

    g - sum_k c_k f_k = 0

yields linear equalities over the template unknowns ``a_ij`` and the
fresh multipliers ``c_k``, which is exactly what the LP solves.

Every LP of the pipeline (synthesis, tail bound, ranking supermartingale,
regime check) is built by :class:`CertificateProblem`, which owns the cap
rule, the deadline checkpoint, the column/row order and the NaN guard.

Performance notes
-----------------
``monoid_products`` is built *incrementally*: the degree-``k`` frontier
extends the cached degree-``k-1`` products by one factor instead of
re-multiplying every combination from the constant polynomial, and the
result is memoised per ``(Gamma, cap)`` — constraint sites repeat the
same invariant polyhedra many times within one synthesis run (and again
across the PUCS/PLCS runs of a single analysis).

``certificate_equalities`` never touches polynomial arithmetic: the
equality rows are accumulated directly into per-monomial coefficient
tables (one dict per row), instead of repeatedly rebuilding the
``O(terms)`` residual polynomial per multiplier.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..deadline import check_deadline
from ..errors import NonLinearError, SynthesisError
from ..polynomials import LinForm, Monomial, Polynomial
from .lp import LinearProgram, LPSolution

__all__ = ["CertificateProblem", "LinearEquality", "certificate_equalities", "clear_monoid_cache",
           "monoid_products"]

#: One linear equality ``sum(coeffs[u] * u) = rhs`` over LP unknowns.
LinearEquality = Tuple[Dict[str, float], float]

#: ``(per-gamma canonical keys, cap) -> tuple of products``; bounded so a
#: long-lived process sweeping many programs cannot grow it unboundedly.
_MONOID_CACHE: Dict[tuple, Tuple[Polynomial, ...]] = {}
_MONOID_CACHE_MAX = 4096


def clear_monoid_cache() -> None:
    """Drop the memoised monoid products (tests and benchmarks)."""
    _MONOID_CACHE.clear()


def _gamma_key(g: Polynomial) -> tuple:
    """Canonical hashable key of a numeric linear constraint."""
    return tuple(sorted((m.powers, float(c)) for m, c in g.terms()))


def monoid_products(gammas: Sequence[Polynomial], max_multiplicands: int) -> List[Polynomial]:
    """All products of at most ``max_multiplicands`` elements of ``Gamma``.

    The empty product (the constant polynomial 1) is always included —
    it is the ``t = 0`` case of the paper's ``Monoid(Gamma)`` and lets
    certificates carry a nonnegative constant slack.  Duplicate products
    (e.g. from repeated constraints) are removed.
    """
    if max_multiplicands < 0:
        raise ValueError("max_multiplicands must be nonnegative")
    for g in gammas:
        if not g.is_numeric():
            raise NonLinearError("Handelman constraints must be numeric")
        if not g.is_linear():
            raise NonLinearError(f"Handelman constraints must be linear, got {g}")

    cache_key = (tuple(_gamma_key(g) for g in gammas), int(max_multiplicands))
    cached = _MONOID_CACHE.get(cache_key)
    if cached is not None:
        return list(cached)

    one = Polynomial.constant(1.0)
    products: List[Polynomial] = [one]
    seen = {one}
    # Frontier of degree-(k-1) combinations as (product, next admissible
    # gamma index): extending with indices >= the last one used walks
    # exactly the combinations-with-replacement of the naive version.
    frontier: List[Tuple[Polynomial, int]] = [(one, 0)]
    for _count in range(1, max_multiplicands + 1):
        next_frontier: List[Tuple[Polynomial, int]] = []
        for prod, start in frontier:
            for idx in range(start, len(gammas)):
                extended = prod * gammas[idx]
                next_frontier.append((extended, idx))
                if extended not in seen:
                    seen.add(extended)
                    products.append(extended)
        frontier = next_frontier

    if len(_MONOID_CACHE) >= _MONOID_CACHE_MAX:
        _MONOID_CACHE.clear()
    _MONOID_CACHE[cache_key] = tuple(products)
    return list(products)


def certificate_equalities(
    target: Polynomial,
    gammas: Sequence[Polynomial],
    max_multiplicands: int,
    site_name: str,
) -> Tuple[List[LinearEquality], List[str]]:
    """Encode ``target = sum_k c_k f_k`` as linear equalities.

    ``target`` is a polynomial whose coefficients are affine in the
    template unknowns.  Returns the equality rows (one per monomial of
    the combined polynomial) plus the names of the fresh nonnegative
    multipliers ``c_k``; the caller registers those with the LP.

    ``site_name`` keys the multiplier names so that constraint sites
    stay distinguishable in LP dumps (useful when debugging
    infeasibility).
    """
    products = monoid_products(gammas, max_multiplicands)
    prefix = f"c_{site_name}"
    multipliers = [f"{prefix}_{k}" for k in range(len(products))]

    # One row per monomial of target - sum_k c_k f_k; accumulate the
    # unknowns' coefficients directly instead of building the residual
    # polynomial multiplier by multiplier.
    rows: Dict[Monomial, Dict[str, float]] = {}
    rhs: Dict[Monomial, float] = {}
    for mono, coeff in target.terms():
        if isinstance(coeff, LinForm):
            rows[mono] = dict(coeff.terms)
            rhs[mono] = -coeff.const
        else:
            rows[mono] = {}
            rhs[mono] = -float(coeff)
    for c_name, product in zip(multipliers, products):
        for mono, pcoeff in product.terms():
            row = rows.get(mono)
            if row is None:
                rows[mono] = {c_name: -float(pcoeff)}
                rhs[mono] = 0.0
            else:
                row[c_name] = row.get(c_name, 0.0) - float(pcoeff)

    equalities: List[LinearEquality] = [(row, rhs[mono]) for mono, row in rows.items()]
    return equalities, multipliers


class _Site(NamedTuple):
    """One site's certificate rows and multiplier names ``c_<name>_k``."""

    tag: Optional[Tuple[int, int]]
    equalities: List[LinearEquality]
    multipliers: List[str]


class CertificateProblem:
    """One Handelman LP: the LP's own unknowns plus certified sites.

    ``unknowns`` become the first columns, in order: the free template
    coefficients of a synthesis, or a bound such as ``tail_c``
    (``nonnegative=True``).  A site tagged ``(label_id, choice)`` enters
    the LP only when ``choices`` picks that successor at that label (the
    PLCS condition (C3')), so one problem serves every policy.
    """

    def __init__(self, unknowns: Sequence[str] = (), nonnegative: bool = False):
        self.unknowns = list(unknowns)
        self.nonnegative = nonnegative
        self.sites: List[_Site] = []

    def add_site(
        self,
        name: str,
        target: Polynomial,
        gammas: Sequence[Polynomial],
        cap: Optional[int] = None,
        tag: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Certify ``target >= 0`` on ``<gammas>``.  ``cap`` bounds the
        multiplicands per product; ``None`` picks the target's degree
        (at least 1), the smallest cap that can match it."""
        # Cooperative per-site checkpoint: certificate extraction
        # dominates preparation time, and SIGALRM budgets do not fire
        # on service handler threads.
        check_deadline()
        if cap is None:
            cap = max(target.degree(), 1)
        equalities, multipliers = certificate_equalities(target, gammas, cap, name)
        self.sites.append(_Site(tag, equalities, multipliers))

    def solve(
        self,
        objective: LinForm,
        maximize: bool = False,
        choices: Optional[Mapping[int, int]] = None,
    ) -> LPSolution:
        """Build and solve the LP of the policy ``choices`` (choice 0
        where unset); a NaN optimum is a :class:`SynthesisError`."""
        check_deadline()
        choices = choices or {}
        # Untagged sites first, in insertion order; then the chosen
        # tagged sites, grouped by label in first-seen order.
        groups: Dict[Optional[int], List[_Site]] = {None: []}
        for site in self.sites:
            label_id = site.tag[0] if site.tag else None
            chosen = groups.setdefault(label_id, [])
            if site.tag is None or site.tag[1] == choices.get(label_id, 0):
                chosen.append(site)
        lp = LinearProgram()
        for name in self.unknowns:
            lp.add_unknown(name, nonnegative=self.nonnegative)
        for site in chain.from_iterable(groups.values()):
            for c_name in site.multipliers:
                lp.add_unknown(c_name, nonnegative=True)
            for coeffs, rhs in site.equalities:
                lp.add_equality(coeffs, rhs)
        lp.set_objective(objective, maximize=maximize)
        solution = lp.solve()
        if math.isnan(solution.objective):
            # Letting a NaN into bound comparisons would silently
            # corrupt best-policy selection downstream.
            raise SynthesisError(
                f"LP solver returned a NaN objective ({solution.num_equalities} rows x "
                f"{solution.num_variables} columns); the program/invariant combination "
                "produced a degenerate LP"
            )
        return solution
