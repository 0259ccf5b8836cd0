"""Equivalence of the optimized Handelman/LP paths with the seed logic.

The fast synthesis core rebuilt ``monoid_products`` (incremental),
the certificate rows (memoised product blocks joined with the target
by column number, instead of residual-polynomial arithmetic) and the
LP assembly (CSR arrays, direct HiGHS).  These tests pin the optimized
implementations against straightforward reference implementations
transcribed from the seed revision, and against the seed revision's
synthesized bounds on every experiment-table benchmark.
"""

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lp as lp_module
from repro.core.handelman import (
    CertificateProblem,
    CompiledTarget,
    clear_product_blocks,
    monoid_products,
    product_block,
)
from repro.errors import CONSISTENCY_TOL, ZERO_TOL, InfeasibleError
from repro.polynomials import LinForm, Monomial, Polynomial

X = Polynomial.variable("x")
Y = Polynomial.variable("y")
Z = Polynomial.variable("z")


# ---------------------------------------------------------------------------
# Reference implementations (transcribed from the seed revision)
# ---------------------------------------------------------------------------


def naive_monoid_products(gammas, max_multiplicands):
    products = [Polynomial.constant(1.0)]
    seen = {products[0]}
    for count in range(1, max_multiplicands + 1):
        for combo in combinations_with_replacement(range(len(gammas)), count):
            prod = Polynomial.constant(1.0)
            for idx in combo:
                prod = prod * gammas[idx]
            if prod not in seen:
                seen.add(prod)
                products.append(prod)
    return products


def naive_certificate_equalities(target, gammas, max_multiplicands, site_name):
    multipliers = []
    residual = target
    for k, product in enumerate(naive_monoid_products(gammas, max_multiplicands)):
        c_name = f"c_{site_name}_{k}"
        multipliers.append(c_name)
        residual = residual - product * LinForm.unknown(c_name)
    equalities = []
    for _mono, coeff in residual.terms():
        form = coeff if isinstance(coeff, LinForm) else LinForm(float(coeff))
        equalities.append((dict(form.terms), -form.const))
    return equalities, multipliers


def reference_rows(unknowns, sites, choices):
    """The seed's LP for ``choices``: column names, and rows as
    ``({name: coeff}, rhs)`` after the seed's row cleaning (drop
    coefficients at or below ZERO_TOL unless all are; skip ``0 = 0``;
    ``0 = c`` is infeasible; keep the first of equal rows)."""
    groups = {None: []}
    for site in sites:
        name, target, gammas, cap, tag = site
        label = tag[0] if tag else None
        chosen = groups.setdefault(label, [])
        if tag is None or tag[1] == choices.get(label, 0):
            chosen.append(site)
    columns = list(dict.fromkeys(unknowns))
    rows, seen = [], set()
    for name, target, gammas, cap, _tag in (site for group in groups.values() for site in group):
        equalities, multipliers = naive_certificate_equalities(target, gammas, cap, name)
        columns += multipliers
        for coeffs, rhs in equalities:
            cleaned = {n: c for n, c in coeffs.items() if abs(c) > ZERO_TOL}
            if not cleaned:
                cleaned = {n: c for n, c in coeffs.items() if c != 0.0}
            if not cleaned:
                if abs(rhs) > CONSISTENCY_TOL:
                    raise InfeasibleError(f"contradictory constant equality 0 = {rhs}")
                continue
            key = (tuple(sorted(cleaned.items())), rhs)
            if key not in seen:
                seen.add(key)
                rows.append((cleaned, rhs))
    return columns, rows


class _Assembled(Exception):
    pass


def assembled_rows(monkeypatch, problem, choices):
    """Column names and named rows of the LP ``problem`` hands HiGHS."""

    def capture(lp):
        raise _Assembled(lp)

    monkeypatch.setattr(lp_module.LinearProgram, "solve", capture)
    with pytest.raises(_Assembled) as assembled:
        problem.solve(LinForm(0.0), choices=choices)
    lp = assembled.value.args[0]
    names = lp.column_names()
    rows = [
        ({names[lp.index[at]]: lp.value[at] for at in range(lp.starts[row], lp.starts[row + 1])}, rhs)
        for row, rhs in enumerate(lp.rhs)
    ]
    return names, rows


def assert_rows_match_reference(monkeypatch, unknowns, sites, choices, compiled=False):
    """``compiled``: add each distinct target as one :class:`CompiledTarget`
    shared by its sites, as the synthesis memo does."""
    problem = CertificateProblem(unknowns)
    targets = {}
    for name, target, gammas, cap, tag in sites:
        if compiled:
            target = targets.setdefault(id(target), CompiledTarget(target, problem.columns))
        problem.add_site(name, target, gammas, cap=cap, tag=tag)
    try:
        expected = reference_rows(unknowns, sites, choices)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError, match=str(exc)):
            assembled_rows(monkeypatch, problem, choices)
        return
    assert assembled_rows(monkeypatch, problem, choices) == expected


GAMMA_SETS = [
    [X],
    [X, Y],
    [X, X],  # duplicated constraint
    [X, 1 - X],
    [X, Y, 1 - X, 2 - Y],
    [X - 1, Y + 2, 3 - X - Y],
    [2 * X + 3 * Y - 1, 5 - X],
]


class TestMonoidEquivalence:
    @pytest.mark.parametrize("gammas", GAMMA_SETS)
    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_products_match_naive(self, gammas, cap):
        fast = monoid_products(gammas, cap)
        naive = naive_monoid_products(gammas, cap)
        assert len(fast) == len(naive)
        for product_poly in naive:
            assert any(product_poly == p for p in fast)

    def test_blocks_memoised_per_gamma(self):
        clear_product_blocks()
        first = product_block([X, 1 - X], 2)
        assert product_block([X, 1 - X], 2) is first
        # Equal constraints hit the memo whatever their term order.
        assert product_block([X, -X + 1], 2) is first
        assert len(first) == 6  # 1, x, 1 - x, x^2, x(1 - x), (1 - x)^2
        clear_product_blocks()
        assert product_block([X, 1 - X], 2) is not first

    def test_block_rows_cover_every_product(self):
        block = product_block([X, Y], 2)
        assert len(block) == 6
        entries = [(k, v) for k, v in zip(block.ks, block.values)]
        # Each product is one monomial with coefficient 1: one entry each.
        assert sorted(entries) == [(k, -1.0) for k in range(6)]


class TestCertificateEquivalence:
    TARGETS = [
        X + 1,
        X * (1 - X),
        Polynomial.constant(LinForm.unknown("a")) * X + LinForm.unknown("b"),
        Polynomial.constant(LinForm.unknown("a", 2.0)) * X * X
        - Polynomial.constant(LinForm.unknown("b", 0.5)) * Y
        + 3.0,
    ]

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("gammas", [[X], [X, 1 - X], [X, Y, 2 - Y]])
    @pytest.mark.parametrize("cap", [1, 2])
    def test_rows_match_naive(self, monkeypatch, target, gammas, cap):
        clear_product_blocks()
        assert_rows_match_reference(monkeypatch, ["a", "b"], [("s", target, gammas, cap, None)], {})

    #: Rows the join treats specially: every coefficient at or below
    #: ZERO_TOL (kept, not deleted); ``0 = 1`` (the site's
    #: contradiction, after a row it already made); and an exact zero
    #: coefficient, whose row over ``x + y`` repeats the block's row of y.
    EDGE_TARGETS = {
        "all-subtolerance": X * LinForm(-5e-10, {"a": 5e-13}) + Y * LinForm(-1.0, {"a": 5e-13}),
        "contradiction": Polynomial.constant(LinForm(-1.0, {"a": 2.0})) + X * -1.0,
        "exact-zero": Polynomial._raw({Monomial.variable("x"): LinForm(0.0), Monomial.one(): 1.0}),
    }

    @pytest.mark.parametrize("compiled", [False, True], ids=["polynomial", "compiled"])
    @pytest.mark.parametrize("edge", sorted(EDGE_TARGETS))
    @pytest.mark.parametrize("gammas", [[], [Y], [X + Y]])
    def test_edge_rows_match_naive(self, monkeypatch, edge, gammas, compiled):
        sites = [("s", self.EDGE_TARGETS[edge], gammas, 1, None)]
        assert_rows_match_reference(monkeypatch, ["a", "b"], sites, {}, compiled=compiled)


#: Small pools, so sites share constraints and targets: rows repeat
#: within a site (x and y only in x + y) and across sites (z is in no
#: constraint, so its coefficient is a row over the unknowns alone).
_GAMMAS = [X, Y, X + Y, 1 - X, 2 - Y, X - 1, 3 * X + 1e-13 * Y, 2 * X]
_COEFFS = [
    1.0, -2.0, 1e-13, LinForm.unknown("a"), LinForm(-1.0, {"b": 2.0}),
    LinForm(0.0, {"a": 1.0, "b": 1e-13}), LinForm(1e-13, {"a": 1e-13}), LinForm(3.0, {"a": -1.0}),
]
_MONOMIALS = [Polynomial.constant(1.0), X, Y, Polynomial.variable("z"), X * Y, X * X]


@st.composite
def certificate_sites(draw):
    targets = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(_MONOMIALS), st.sampled_from(_COEFFS)), min_size=1, max_size=4),
        min_size=1, max_size=3,
    ))
    targets = [sum((mono * Polynomial.constant(coeff) for mono, coeff in terms), Polynomial.zero())
               for terms in targets]
    sites = []
    for index in range(draw(st.integers(1, 5))):
        tag = draw(st.one_of(st.none(), st.tuples(st.sampled_from([1, 2]), st.sampled_from([0, 1]))))
        sites.append((
            f"s{index}",
            draw(st.sampled_from(targets)),
            draw(st.lists(st.sampled_from(_GAMMAS), max_size=3)),
            draw(st.integers(0, 2)),
            tag,
        ))
    return sites


@settings(max_examples=200, deadline=None)
@given(certificate_sites())
def test_problem_rows_match_naive_under_every_policy(sites):
    with pytest.MonkeyPatch.context() as monkeypatch:
        for choice_1, choice_2 in product((0, 1), repeat=2):
            for compiled in (False, True):
                assert_rows_match_reference(
                    monkeypatch, ["a", "b"], sites, {1: choice_1, 2: choice_2}, compiled=compiled
                )


# ---------------------------------------------------------------------------
# End-to-end: optimized pipeline reproduces the seed bounds
# ---------------------------------------------------------------------------

#: Bound values synthesized by the seed revision (commit 002b8b8) for
#: every experiment-table benchmark at its default degree and anchor.
SEED_BOUNDS = {
    "ber": (200.0, 198.0),
    "bin": (20.0, 19.8),
    "linear01": (60.6, 59.4),
    "prdwalk": (114.28571428571428, 113.14285714285714),
    "race": (22.666666666666668, 20.0),
    "rdseql": (275.0, 271.74999999999994),
    "rdwalk": (202.0, 200.0),
    "sprdwalk": (202.0, 198.0),
    "C4B_t13": (50.0, 47.75),
    "prnes": (684.7368421052631, 606.7894736842105),
    "condand": (40.0, 0.0),
    "pol04": (11179.5, 11169.0),
    "pol05": (1375.0, 1372.0),
    "rdbub": (1199.9999999999995, None),
    "trader": (4500.0, 4440.0),
    "bitcoin_mining": (-146.025, -147.5),
    "bitcoin_pool": (-77863.50000000009, -80387.49999999988),
    "queuing_network": (30.136755042838836, 8.932),
    "species_fight": (2529.9999999999977, None),
    "simple_loop": (13400.000000000004, 13399.333333333338),
    "nested_loop": (7650.000000000002, 7450.000000000002),
    "random_walk": (-20.0, -22.5),
    "robot_2d": (1922.6160007150902, 1691.2829541464162),
    "goods_discount": (-25.28617283950617, -30.493086419753116),
    "pollutant_disposal": (1940.3999999999933, 1558.0000000000027),
}


def _all_benchmarks():
    from repro.programs import TABLE2_BENCHMARKS, TABLE3_BENCHMARKS

    return TABLE2_BENCHMARKS + TABLE3_BENCHMARKS


@pytest.mark.parametrize("bench", _all_benchmarks(), ids=lambda b: b.name)
def test_bounds_match_seed(bench):
    expected_upper, expected_lower = SEED_BOUNDS[bench.name]
    result = bench.analyze()
    for expected, bound_result in ((expected_upper, result.upper), (expected_lower, result.lower)):
        if expected is None:
            assert bound_result is None
        else:
            assert bound_result is not None
            tolerance = 1e-6 * max(1.0, abs(expected))
            assert bound_result.value == pytest.approx(expected, abs=tolerance)
