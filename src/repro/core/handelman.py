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
The products of ``Gamma`` are built once per ``(Gamma, cap)`` into a
:class:`ProductBlock`: for each monomial of the products, in
first-appearance order, the multiplier indices ``k`` and values
``-coeff`` in flat ``array('i')``/``array('d')`` storage, plus an id per
distinct row.  Blocks are memoised (constraint sites repeat the same
invariant polyhedra many times within one analysis); the polynomials
they were built from are not kept.

Rows are numbered by column, never by name.  :class:`CertificateProblem`
gives each unknown a fixed column and each chosen site one contiguous
range of multiplier columns.  A site's target is compiled once into a
:class:`CompiledTarget`: per monomial, the unknowns' columns and values,
cleaned and raw, their sorted dedupe key and the right-hand side.
Synthesis and the ranking supermartingale keep the compiled targets of a
template (they repeat for every request on the same CFG and degree);
other callers pass polynomials, compiled on the spot.
:func:`certificate_equalities` joins a compiled target with the block's
rows in one pass per site, dropping the site's duplicate rows there;
:meth:`CertificateProblem.solve` copies the chosen sites' rows into the
CSR arrays of a :class:`~repro.core.lp.LinearProgram`.  The names
``c_<site>_<k>`` exist only on demand, for dumps and tests.
"""

from __future__ import annotations

import math
import weakref
from array import array
from itertools import chain
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from ..deadline import check_deadline
from ..errors import CONSISTENCY_TOL, ZERO_TOL, InfeasibleError, NonLinearError, SynthesisError
from ..polynomials import LinForm, Monomial, Polynomial
from .lp import LinearProgram, LPSolution

__all__ = ["CertificateProblem", "CompiledTarget", "ProductBlock", "certificate_equalities",
           "clear_product_blocks", "column_map", "gamma_key", "monoid_products", "product_block"]

#: One certificate row ``(cols, vals, block_row, rhs, key)``: the
#: unknowns' columns and coefficients, the :class:`ProductBlock` row
#: holding the multipliers' part (``-1``: none) and the right-hand side.
#: ``key`` is set on rows without multipliers, which can repeat across
#: sites; :meth:`CertificateProblem.solve` keeps the first of each.
Row = Tuple[Tuple[int, ...], Tuple[float, ...], int, float, Optional[tuple]]

#: ``(gamma_key(Gamma), cap) -> ProductBlock``; bounded so a
#: long-lived process sweeping many programs cannot grow it unboundedly.
_BLOCKS: Dict[tuple, "ProductBlock"] = {}
_BLOCKS_MAX = 4096


def clear_product_blocks() -> None:
    """Drop the memoised product blocks (tests and benchmarks)."""
    _BLOCKS.clear()


def monoid_products(gammas: Sequence[Polynomial], max_multiplicands: int) -> List[Polynomial]:
    """All products of at most ``max_multiplicands`` elements of ``Gamma``.

    The empty product (the constant polynomial 1) is always included —
    it is the ``t = 0`` case of the paper's ``Monoid(Gamma)`` and lets
    certificates carry a nonnegative constant slack.  Duplicate products
    (e.g. from repeated constraints) are removed; the rest keep their
    first-appearance order.
    """
    if max_multiplicands < 0:
        raise ValueError("max_multiplicands must be nonnegative")
    for g in gammas:
        if not g.is_numeric():
            raise NonLinearError("Handelman constraints must be numeric")
        if not g.is_linear():
            raise NonLinearError(f"Handelman constraints must be linear, got {g}")

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
    return products


class ProductBlock:
    """The products ``f_k`` of one ``(Gamma, cap)`` as certificate rows.

    Row ``r`` belongs to one monomial of the products (``position`` maps
    monomial -> row, in first-appearance order) and holds the entries
    ``(k, -coeff of the monomial in f_k)`` at ``ks``/``values``
    ``[starts[r]:starts[r + 1]]``, ``k`` ascending.  Entries at or below
    ``ZERO_TOL`` are not in the row; a row that had any gets a second
    row holding just those (``tiny[r]``), for the rare certificate row
    made of nothing else.  ``ids[r]`` is equal for rows of equal
    content.  ``bare[r]`` is the row a target without monomial ``r``
    gets (``-1``: none, as it reads ``0 = 0``).  ``len(block)`` is the
    number of products.
    """

    __slots__ = ("size", "position", "starts", "ks", "values", "ids", "tiny", "bare")

    def __init__(self, products: Sequence[Polynomial]):
        self.size = len(products)
        self.position: Dict[Monomial, int] = {}
        entries: List[List[Tuple[int, float]]] = []
        for k, product in enumerate(products):
            for mono, coeff in product.terms():
                row = self.position.get(mono)
                if row is None:
                    self.position[mono] = len(entries)
                    entries.append([(k, -float(coeff))])
                else:
                    entries[row].append((k, -float(coeff)))
        kept = [[e for e in row if abs(e[1]) > ZERO_TOL] for row in entries]
        self.tiny: Dict[int, int] = {}
        for r, row in enumerate(entries):
            if len(kept[r]) < len(row):
                self.tiny[r] = len(kept)
                kept.append([e for e in row if abs(e[1]) <= ZERO_TOL])
        self.starts = array("i", [0])
        self.ks = array("i")
        self.values = array("d")
        self.ids = array("i")
        content_ids: Dict[tuple, int] = {}
        for row in kept:
            for k, value in row:
                self.ks.append(k)
                self.values.append(value)
            self.starts.append(len(self.ks))
            self.ids.append(content_ids.setdefault(tuple(row), len(content_ids)))
        self.bare = array("i", (
            r if self.starts[r] < self.starts[r + 1] else self.tiny.get(r, -1) for r in range(len(entries))
        ))

    def __len__(self) -> int:
        return self.size


def gamma_key(gammas: Sequence[Polynomial]) -> tuple:
    """The memo key of the constraint list ``Gamma``: one term set per
    constraint, so equal constraints share a block whatever their term
    order.  A caller that certifies many sites on one ``Gamma`` (or one
    part of it) computes this once and hands it on."""
    return tuple(frozenset(g.terms()) for g in gammas)


def product_block(
    gammas: Sequence[Polynomial], max_multiplicands: int, key: Optional[tuple] = None
) -> ProductBlock:
    """The memoised :class:`ProductBlock` of ``Gamma`` and the cap;
    ``key`` is ``gamma_key(gammas)`` when the caller already holds it."""
    # A constraint that is not numeric and linear never gets a block,
    # as monoid_products raises on the miss.
    key = (gamma_key(gammas) if key is None else key, int(max_multiplicands))
    block = _BLOCKS.get(key)
    if block is None:
        block = ProductBlock(monoid_products(gammas, max_multiplicands))
        if len(_BLOCKS) >= _BLOCKS_MAX:
            _BLOCKS.clear()
        _BLOCKS[key] = block
    return block


#: unknowns -> their column map, alive while a problem or compiled
#: target uses it: problems over the same unknowns share one map, so a
#: compiled target recognises its numbering by identity.
_COLUMN_MAPS: "weakref.WeakValueDictionary[Tuple[str, ...], ColumnMap]" = weakref.WeakValueDictionary()


class ColumnMap(dict):
    """``{unknown: column}``, shared; never mutated once built."""

    __slots__ = ("__weakref__",)


def column_map(unknowns: Sequence[str]) -> ColumnMap:
    """The shared column map numbering ``unknowns`` (distinct) in order."""
    key = tuple(unknowns)
    columns = _COLUMN_MAPS.get(key)
    if columns is None:
        columns = ColumnMap((name, col) for col, name in enumerate(key))
        _COLUMN_MAPS[key] = columns
    return columns


#: One compiled target monomial ``(mono, cols, vals, key, raw, rhs)``:
#: the unknowns' columns and values with coefficients at or below
#: ``ZERO_TOL`` dropped, their dedupe key (the same, in column order),
#: those three of all the coefficients (``raw``, for a row made of
#: nothing else), and the right-hand side.
Term = Tuple[Monomial, Tuple[int, ...], Tuple[float, ...], tuple, tuple, float]


#: The dedupe key of a row without unknowns, as :func:`_entries` makes it.
_NO_ENTRIES = ((), ())


def _entries(pairs: List[Tuple[int, float]]) -> tuple:
    """``(cols, vals, key)`` of a row's ``(col, value)`` entries; the
    columns are distinct, so ``key`` is equal for equal sets."""
    if not pairs:
        return (), (), _NO_ENTRIES
    cols, vals = zip(*pairs)
    ordered = sorted(pairs)
    return cols, vals, (cols, vals) if ordered == pairs else tuple(zip(*ordered))


class CompiledTarget:
    """A site target's half of its certificate rows, for ``columns``.

    ``target`` is a polynomial whose coefficients are affine in the
    unknowns that ``columns`` numbers; ``terms`` holds one :data:`Term`
    per monomial, in the target's order.  What is left per site depends
    on its product block alone (:func:`certificate_equalities`).
    """

    __slots__ = ("columns", "terms", "_degree")

    def __init__(self, target: Polynomial, columns: Mapping[str, int]):
        self.columns = columns
        degree = 0
        terms: List[Term] = []
        for mono, coeff in target.terms():
            degree = max(degree, mono.degree())
            entries = []
            if isinstance(coeff, LinForm):
                for name, value in coeff.terms.items():
                    col = columns.get(name)
                    if col is None:
                        raise SynthesisError(f"equality references unregistered unknown {name!r}")
                    entries.append((col, value))
                rhs = -coeff.const
            else:
                rhs = -float(coeff)
            # HiGHS zeroes matrix entries below its small_matrix_value
            # (1e-9) anyway; dropping those at or below ZERO_TOL makes
            # rows canonical for the duplicate check.
            kept = [e for e in entries if abs(e[1]) > ZERO_TOL]
            cleaned = _entries(kept)
            terms.append((mono, *cleaned, cleaned if len(kept) == len(entries) else _entries(entries), rhs))
        self.terms: Tuple[Term, ...] = tuple(terms)
        self._degree = degree

    def degree(self) -> int:
        """The target polynomial's total degree."""
        return self._degree


def certificate_equalities(
    target: Union[Polynomial, CompiledTarget],
    gammas: Sequence[Polynomial],
    max_multiplicands: int,
    columns: Mapping[str, int],
    key: Optional[tuple] = None,
) -> Tuple[List[Row], ProductBlock, Optional[float]]:
    """Encode ``target = sum_k c_k f_k`` as rows over integer columns.

    ``target`` is a polynomial whose coefficients are affine in the
    unknowns that ``columns`` numbers, or a :class:`CompiledTarget` of
    one for ``columns``.  There is one row per monomial of
    ``target - sum_k c_k f_k``: the target's monomials first, in its
    order, then the block's other monomials.  Multiplier ``c_k`` is
    column ``k`` of the site's range (see :data:`Row`).

    Each row is cleaned as an LP row: coefficients at or below
    ``ZERO_TOL`` are dropped, unless all of them are that small (a
    badly scaled but real constraint keeps them all); ``0 = 0`` is
    skipped; and a row equal to an earlier one of the site is dropped.
    The first ``0 = c`` row ends the rows: its ``c`` is returned as the
    site's contradiction, which makes any LP holding the site
    infeasible.  Returns ``(rows, block, contradiction)``;
    ``len(block)`` is the number of multipliers.  ``key`` is
    :func:`gamma_key` of ``gammas``, when the caller already holds it.
    """
    if not isinstance(target, CompiledTarget):
        target = CompiledTarget(target, columns)
    elif target.columns is not columns and target.columns != columns:
        raise SynthesisError("target compiled for another numbering of the unknowns")
    block = product_block(gammas, max_multiplicands, key)
    position, starts, ids, tiny = block.position, block.starts, block.ids, block.tiny
    rows: List[Row] = []
    seen = set()
    used = set()
    for mono, cols, vals, entries, raw, rhs in target.terms:
        r = position.get(mono, -1)
        used.add(r)
        brow = r if r >= 0 and starts[r] < starts[r + 1] else -1
        if not cols and brow < 0:
            # All coefficients tiny (LinForm drops exact zeros): keep
            # them, as the row is badly scaled yet real, not ``0 = rhs``.
            cols, vals, entries = raw
            brow = tiny.get(r, -1)
            if not cols and brow < 0:
                if abs(rhs) > CONSISTENCY_TOL:
                    return rows, block, rhs
                continue  # 0 = 0 is skipped
        if brow < 0:
            rows.append((cols, vals, -1, rhs, (entries, rhs)))
            continue
        key = (ids[brow], entries, rhs)
        if key not in seen:
            seen.add(key)
            rows.append((cols, vals, brow, rhs, None))
    for r, brow in enumerate(block.bare):
        if brow >= 0 and r not in used:
            key = (ids[brow], _NO_ENTRIES, 0.0)
            if key not in seen:
                seen.add(key)
                rows.append(((), (), brow, 0.0, None))
    return rows, block, None


class _Site(NamedTuple):
    """One site's certificate rows over its multipliers ``c_<name>_k``."""

    name: str
    tag: Optional[Tuple[int, int]]
    rows: List[Row]
    block: ProductBlock
    #: ``c`` of the site's first ``0 = c`` row, if it has one.
    contradiction: Optional[float]


class CertificateProblem:
    """One Handelman LP: the LP's own unknowns plus certified sites.

    ``unknowns`` become the first columns, in order: the free template
    coefficients of a synthesis, or a bound such as ``tail_c``
    (``nonnegative=True``).  Each site chosen for an LP then gets the
    next ``len(block)`` columns for its multipliers.  A site tagged
    ``(label_id, choice)`` enters the LP only when ``choices`` picks
    that successor at that label (the PLCS condition (C3')), so one
    problem serves every policy.
    """

    def __init__(self, unknowns: Sequence[str] = (), nonnegative: bool = False):
        self.unknowns = list(dict.fromkeys(unknowns))
        self.nonnegative = nonnegative
        self.columns = column_map(self.unknowns)
        self.sites: List[_Site] = []

    def add_site(
        self,
        name: str,
        target: Union[Polynomial, CompiledTarget],
        gammas: Sequence[Polynomial],
        cap: Optional[int] = None,
        tag: Optional[Tuple[int, int]] = None,
        key: Optional[tuple] = None,
    ) -> None:
        """Certify ``target >= 0`` on ``<gammas>``; a compiled target
        must be compiled for :attr:`columns`.  ``cap`` bounds the
        multiplicands per product; ``None`` picks the target's degree
        (at least 1), the smallest cap that can match it.  ``key`` is
        :func:`gamma_key` of ``gammas``, when the caller already holds
        it."""
        # Cooperative per-site checkpoint: certificate extraction
        # dominates preparation time, and SIGALRM budgets do not fire
        # on service handler threads.
        check_deadline()
        if cap is None:
            cap = max(target.degree(), 1)
        rows, block, contradiction = certificate_equalities(target, gammas, cap, self.columns, key)
        self.sites.append(_Site(name, tag, rows, block, contradiction))

    def content_key(self) -> tuple:
        """A key equal for problems that pose equal LPs, whatever their
        site names: the unknowns, their sign, and every site's tag,
        rows and product block."""
        return (
            tuple(self.unknowns),
            self.nonnegative,
            tuple(
                (site.tag, tuple(site.rows), site.contradiction, len(site.block),
                 site.block.starts.tobytes(), site.block.ks.tobytes(), site.block.values.tobytes())
                for site in self.sites
            ),
        )

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
        starts, index, value, rhs = [0], [], [], []
        ranges: List[Tuple[str, int]] = []
        repeated = set()
        offset = len(self.unknowns)
        for site in chain.from_iterable(groups.values()):
            if site.contradiction is not None:
                raise InfeasibleError(f"contradictory constant equality 0 = {site.contradiction}")
            block = site.block
            bstarts, bks, bvalues = block.starts, block.ks, block.values
            for cols, vals, brow, b, key in site.rows:
                if key is not None:
                    if key in repeated:
                        continue
                    repeated.add(key)
                index.extend(cols)
                value.extend(vals)
                if brow >= 0:
                    lo, hi = bstarts[brow], bstarts[brow + 1]
                    index.extend([k + offset for k in bks[lo:hi]])
                    value.extend(bvalues[lo:hi])
                starts.append(len(index))
                rhs.append(b)
            ranges.append((f"c_{site.name}", len(block)))
            offset += len(block)
        cost = [0.0] * offset
        for name, coeff in objective.terms.items():
            col = self.columns.get(name)
            if col is None:
                raise SynthesisError(f"objective references unregistered unknown {name!r}")
            cost[col] = coeff
        named = len(self.unknowns)
        lp = LinearProgram(
            names=self.unknowns,
            nonneg=[self.nonnegative] * named + [True] * (offset - named),
            starts=starts,
            index=index,
            value=value,
            rhs=rhs,
            cost=cost,
            offset=objective.const,
            maximize=maximize,
            ranges=ranges,
        )
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
