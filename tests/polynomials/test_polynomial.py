"""Unit and property tests for sparse multivariate polynomials."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ZERO_TOL, NonLinearError
from repro.polynomials import LinForm, Monomial, Polynomial


def poly_strategy(max_terms=5, max_degree=3):
    names = st.sampled_from(["x", "y", "z"])
    mono = st.dictionaries(names, st.integers(min_value=1, max_value=max_degree), max_size=2).map(
        Monomial
    )
    coeff = st.integers(min_value=-10, max_value=10).map(float)
    return st.lists(st.tuples(mono, coeff), max_size=max_terms).map(Polynomial)


polys = poly_strategy()
valuations = st.fixed_dictionaries(
    {"x": st.integers(-5, 5).map(float), "y": st.integers(-5, 5).map(float), "z": st.integers(-5, 5).map(float)}
)


class TestConstruction:
    def test_zero(self):
        assert Polynomial.zero().is_zero()
        assert Polynomial.zero().degree() == 0

    def test_constant(self):
        p = Polynomial.constant(5.0)
        assert p.is_constant()
        assert p.constant_term() == 5.0

    def test_variable(self):
        p = Polynomial.variable("x")
        assert p.degree() == 1
        assert p.variables() == frozenset({"x"})

    def test_zero_coefficients_pruned(self):
        p = Polynomial({Monomial.variable("x"): 0.0})
        assert p.is_zero()
        assert len(p) == 0

    def test_duplicate_monomials_merge(self):
        m = Monomial.variable("x")
        p = Polynomial([(m, 1.0), (m, 2.0)])
        assert p.coeff(m) == 3.0

    def test_from_coeffs(self):
        p = Polynomial.from_coeffs({"x": 2.0, "y": -1.0}, const=3.0)
        assert p.evaluate_numeric({"x": 1.0, "y": 1.0}) == 4.0

    def test_non_monomial_key_rejected(self):
        with pytest.raises(TypeError):
            Polynomial({"x": 1.0})


class TestArithmetic:
    def test_add(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        assert (x + y).degree() == 1
        assert (x + y).evaluate_numeric({"x": 2.0, "y": 3.0}) == 5.0

    def test_add_scalar(self):
        p = Polynomial.variable("x") + 2
        assert p.constant_term() == 2.0

    def test_sub_self_is_zero(self):
        p = Polynomial.from_coeffs({"x": 1.0, "y": 2.0}, 3.0)
        assert (p - p).is_zero()

    def test_rsub(self):
        p = 1 - Polynomial.variable("x")
        assert p.evaluate_numeric({"x": 0.25}) == 0.75

    def test_mul_degree(self):
        x = Polynomial.variable("x")
        assert ((x + 1) * (x - 1)).degree() == 2

    def test_mul_expansion(self):
        x = Polynomial.variable("x")
        p = (x + 1) * (x - 1)
        assert p == x * x - 1

    def test_scalar_mul(self):
        x = Polynomial.variable("x")
        assert (x * 2.5).evaluate_numeric({"x": 2.0}) == 5.0

    def test_division_by_scalar(self):
        x = Polynomial.variable("x")
        assert (x / 2).evaluate_numeric({"x": 3.0}) == 1.5

    def test_pow(self):
        x = Polynomial.variable("x")
        assert (x + 1) ** 2 == x * x + 2 * x + 1

    def test_pow_zero(self):
        assert (Polynomial.variable("x")) ** 0 == Polynomial.constant(1.0)

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.variable("x") ** -1


class TestSubstitution:
    def test_substitute_constant(self):
        x = Polynomial.variable("x")
        p = x * x + x
        assert p.substitute("x", Polynomial.constant(2.0)) == Polynomial.constant(6.0)

    def test_substitute_polynomial(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        p = x * x
        assert p.substitute("x", y + 1) == y * y + 2 * y + 1

    def test_substitute_absent_variable_is_identity(self):
        p = Polynomial.variable("x") + 1
        assert p.substitute("z", Polynomial.constant(0.0)) is p

    def test_substitute_all_simultaneous_swap(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        p = x - y
        swapped = p.substitute_all({"x": y, "y": x})
        assert swapped == y - x

    def test_partial_evaluate(self):
        p = Polynomial.from_coeffs({"x": 1.0, "y": 1.0})
        q = p.partial_evaluate({"x": 2.0})
        assert q.variables() == frozenset({"y"})
        assert q.constant_term() == 2.0


class TestSymbolicCoefficients:
    def test_template_evaluation_returns_linform(self):
        p = Polynomial({Monomial.variable("x"): LinForm.unknown("a")})
        value = p.evaluate({"x": 3.0})
        assert isinstance(value, LinForm)
        assert value.terms == {"a": 3.0}

    def test_evaluate_numeric_rejects_unsolved(self):
        p = Polynomial({Monomial.one(): LinForm.unknown("a")})
        with pytest.raises(NonLinearError):
            p.evaluate_numeric({})

    def test_instantiate(self):
        p = Polynomial(
            {Monomial.variable("x"): LinForm.unknown("a"), Monomial.one(): LinForm.unknown("b")}
        )
        q = p.instantiate({"a": 2.0, "b": -1.0})
        assert q.is_numeric()
        assert q.evaluate_numeric({"x": 1.0}) == 1.0

    def test_is_numeric(self):
        assert Polynomial.variable("x").is_numeric()
        assert not Polynomial.constant(LinForm.unknown("a")).is_numeric()

    def test_unknowns(self):
        p = Polynomial({Monomial.one(): LinForm(0, {"a": 1.0, "b": 2.0})})
        assert p.unknowns() == frozenset({"a", "b"})

    def test_template_times_numeric(self):
        template = Polynomial.constant(LinForm.unknown("a"))
        x = Polynomial.variable("x")
        prod = template * x
        assert prod.degree() == 1

    def test_template_times_template_rejected(self):
        t = Polynomial.constant(LinForm.unknown("a"))
        with pytest.raises(NonLinearError):
            _ = t * t


class TestComparison:
    def test_eq_against_scalar(self):
        assert Polynomial.constant(2.0) == 2.0

    def test_almost_equal(self):
        p = Polynomial.variable("x") * (1 / 3)
        q = Polynomial.variable("x") * 0.333333333
        assert p.almost_equal(q, tol=1e-6)
        assert not p.almost_equal(q, tol=1e-12)

    def test_round(self):
        p = Polynomial.variable("x") * 0.3333333339
        assert p.round(3).coeff(Monomial.variable("x")) == pytest.approx(0.333)

    def test_str_zero(self):
        assert str(Polynomial.zero()) == "0"

    def test_str_ordering_and_signs(self):
        x = Polynomial.variable("x")
        assert str(x * x - x) == "x^2 - x"


#: Coefficients at and around the equality tolerance, plus the values
#: whose arithmetic is easy to get subtly wrong.
_TOL_EDGES = [ZERO_TOL, math.nextafter(ZERO_TOL, 0.0), math.nextafter(ZERO_TOL, 1.0)]
_DELTAS = [0.0, -0.0, 1e-15, 1.0, *_TOL_EDGES, *(-d for d in _TOL_EDGES)]
_EQ_COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-13, float("nan"), float("inf"), *_TOL_EDGES]),
    st.integers(-3, 3),
    st.floats(min_value=-10, max_value=10),
)
_EQ_MONOS = [Monomial.one(), Monomial.variable("x"), Monomial({"x": 1, "y": 1}), Monomial.variable("y")]


@st.composite
def near_pairs(draw):
    """Two raw term tables (zero coefficients allowed) that differ by
    shifts near ``ZERO_TOL``, dropped monomials and one-sided tiny
    terms; sometimes a coefficient is a LinForm."""
    left = {m: draw(_EQ_COEFFS) for m in draw(st.sets(st.sampled_from(_EQ_MONOS)))}
    right = {}
    for mono, coeff in left.items():
        action = draw(st.sampled_from(["keep", "shift", "drop"]))
        if action == "keep":
            right[mono] = coeff
        elif action == "shift":
            right[mono] = coeff + draw(st.sampled_from(_DELTAS))
    for mono in draw(st.sets(st.sampled_from(_EQ_MONOS))):
        right.setdefault(mono, draw(st.sampled_from(_DELTAS)))
    for table in (left, right):
        if table and draw(st.integers(0, 4)) == 0:
            mono = draw(st.sampled_from(sorted(table)))
            table[mono] = LinForm(float(table[mono]), draw(st.sampled_from([{}, {"a": 1.0}])))
    return Polynomial._raw(left), Polynomial._raw(right)


@given(near_pairs())
@settings(max_examples=400)
def test_eq_is_difference_within_zero_tol(pair):
    p, q = pair
    assert (p == q) == (p - q).is_zero(ZERO_TOL)
    assert (q == p) == (q - p).is_zero(ZERO_TOL)


def test_numeric_eq_builds_no_difference(monkeypatch):
    x = Polynomial.variable("x")
    p, q = x + 1.0, x + (1.0 + ZERO_TOL / 2)

    def no_sub(self, other):
        raise AssertionError("numeric equality subtracted")

    monkeypatch.setattr(Polynomial, "__sub__", no_sub)
    assert p == q and p == Polynomial._raw({**q._terms, Monomial.variable("y"): -0.0})
    assert not p == x + 2


@given(polys, polys)
@settings(max_examples=60)
def test_add_commutative(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
@settings(max_examples=40)
def test_mul_distributes_over_add(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, polys, valuations)
@settings(max_examples=60)
def test_evaluation_is_ring_homomorphism(p, q, v):
    assert (p + q).evaluate_numeric(v) == pytest.approx(
        p.evaluate_numeric(v) + q.evaluate_numeric(v)
    )
    assert (p * q).evaluate_numeric(v) == pytest.approx(
        p.evaluate_numeric(v) * q.evaluate_numeric(v), rel=1e-9, abs=1e-6
    )


@given(polys, valuations)
@settings(max_examples=60)
def test_substitution_commutes_with_evaluation(p, v):
    # p[x := y + 1] evaluated at v equals p evaluated at v with x = v[y] + 1.
    substituted = p.substitute("x", Polynomial.variable("y") + 1)
    direct = dict(v)
    direct["x"] = v["y"] + 1
    assert substituted.evaluate_numeric(v) == pytest.approx(p.evaluate_numeric(direct))


@given(polys)
@settings(max_examples=60)
def test_negation_is_additive_inverse(p):
    assert (p + (-p)).is_zero()


@given(polys, polys, polys)
@settings(max_examples=60)
def test_substitute_all_is_simultaneous(p, q, r):
    # Reference implementation: rename through fresh intermediates, then
    # substitute one variable at a time (the pre-optimization strategy).
    mapping = {"x": q, "y": r}
    fresh = {var: f"__ref_{i}__" for i, var in enumerate(mapping)}
    reference = p
    for var, tmp in fresh.items():
        reference = reference.substitute(var, Polynomial.variable(tmp))
    for var, tmp in fresh.items():
        reference = reference.substitute(tmp, mapping[var])
    assert p.substitute_all(mapping) == reference


@given(polys)
@settings(max_examples=60)
def test_substitute_swap_variables(p):
    swapped = p.substitute_all(
        {"x": Polynomial.variable("y"), "y": Polynomial.variable("x")}
    )
    assert swapped.substitute_all(
        {"x": Polynomial.variable("y"), "y": Polynomial.variable("x")}
    ) == p


@given(polys)
@settings(max_examples=60)
def test_substitute_absent_variable_returns_self(p):
    assert p.substitute("__nope__", Polynomial.variable("x")) is p
    assert p.substitute_all({"__nope__": Polynomial.variable("x")}) is p
