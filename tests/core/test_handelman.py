"""Handelman certificate machinery tests."""

import pytest

from repro.core import certificate_equalities, monoid_products
from repro.core.handelman import CertificateProblem
from repro.errors import InfeasibleError, NonLinearError
from repro.polynomials import LinForm, Polynomial

X = Polynomial.variable("x")
Y = Polynomial.variable("y")


class TestMonoid:
    def test_includes_one(self):
        products = monoid_products([X], 2)
        assert Polynomial.constant(1.0) in products

    def test_cap_zero(self):
        assert monoid_products([X, Y], 0) == [Polynomial.constant(1.0)]

    def test_count_single_gamma(self):
        # 1, x, x^2, x^3
        assert len(monoid_products([X], 3)) == 4

    def test_count_two_gammas(self):
        # 1 | x, y | x^2, xy, y^2
        assert len(monoid_products([X, Y], 2)) == 6

    def test_duplicates_removed(self):
        assert len(monoid_products([X, X], 2)) == 3  # 1, x, x^2

    def test_degrees_bounded_by_cap(self):
        assert all(p.degree() <= 3 for p in monoid_products([X, Y, 1 - X], 3))

    def test_nonlinear_gamma_rejected(self):
        with pytest.raises(NonLinearError):
            monoid_products([X * X], 2)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            monoid_products([X], -1)

    def test_example_products(self):
        # Gamma = {x, x - 1} as in Example 7.3 (label 1).
        products = monoid_products([X, X - 1], 2)
        expected = [
            Polynomial.constant(1.0),
            X,
            X - 1,
            X * X,
            X * (X - 1),
            (X - 1) * (X - 1),
        ]
        for e in expected:
            assert any(p == e for p in products)


class TestCertificates:
    def test_row_count_matches_monomials(self):
        target = Polynomial.constant(LinForm.unknown("a")) * X + LinForm.unknown("b")
        rows, block, contradiction = certificate_equalities(target, [X], 1, {"a": 0, "b": 1})
        # Combined polynomial has monomials {1, x}: two rows.
        assert len(rows) == 2
        assert len(block) == 2  # c for 1 and for x
        assert contradiction is None

    def test_rows_number_unknowns_by_column(self):
        target = Polynomial.constant(LinForm.unknown("a")) * X + LinForm.unknown("b")
        rows, block, _ = certificate_equalities(target, [X], 1, {"a": 0, "b": 1})
        (cols_x, vals_x, brow_x, rhs_x, _), (cols_1, vals_1, brow_1, rhs_1, _) = rows
        assert (cols_x, vals_x, rhs_x) == ((0,), (1.0,), 0.0)  # a - c_1 = 0
        assert (cols_1, vals_1, rhs_1) == ((1,), (1.0,), 0.0)  # b - c_0 = 0
        lo, hi = block.starts[brow_x], block.starts[brow_x + 1]
        assert list(zip(block.ks[lo:hi], block.values[lo:hi])) == [(1, -1.0)]
        lo, hi = block.starts[brow_1], block.starts[brow_1 + 1]
        assert list(zip(block.ks[lo:hi], block.values[lo:hi])) == [(0, -1.0)]

    def test_multipliers_get_a_range_per_site(self, monkeypatch):
        from repro.core import lp as lp_module

        t = Polynomial.constant(LinForm.unknown("a"))
        problem = CertificateProblem(["a"])
        problem.add_site("s1", t, [X], cap=1)
        problem.add_site("s2", t, [X], cap=1)
        solved, real_solve = [], lp_module.LinearProgram.solve
        monkeypatch.setattr(lp_module.LinearProgram, "solve", lambda lp: solved.append(lp) or real_solve(lp))
        problem.solve(LinForm(0.0))
        assert solved[0].column_names() == ["a", "c_s1_0", "c_s1_1", "c_s2_0", "c_s2_1"]

    def test_solvable_certificate_exists(self):
        """x + 1 >= 0 on {x >= 0} has the certificate 1*1 + 1*x: the
        largest constant s with x + 1 - s >= 0 there is c_0 = 1."""
        problem = CertificateProblem(["s"])
        problem.add_site("t", X + 1 - Polynomial.constant(LinForm.unknown("s")), [X], cap=1)
        solution = problem.solve(LinForm.unknown("s"), maximize=True)
        assert solution.values["s"] == pytest.approx(1.0)

    def test_unsatisfiable_certificate(self):
        """-1 >= 0 on {x >= 0} has no certificate."""
        problem = CertificateProblem()
        problem.add_site("t", Polynomial.constant(-1.0), [X], cap=2)
        with pytest.raises(InfeasibleError):
            problem.solve(LinForm(0.0))

    def test_quadratic_on_interval(self):
        """x(1-x) >= 0 on {x >= 0, 1 - x >= 0} via the product x * (1-x)."""
        problem = CertificateProblem()
        problem.add_site("t", X * (1 - X), [X, 1 - X], cap=2)
        problem.solve(LinForm(0.0))  # must not raise
