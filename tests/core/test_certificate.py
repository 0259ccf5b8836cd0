"""Every Handelman LP reaches HiGHS exactly as it was first pinned.

HiGHS verdicts on badly scaled LPs depend on how the LP is presented —
column and row order included — so "same optimum" is not enough: each
LP is hashed at the moment :meth:`LinearProgram.solve` is called.  The
digest covers the column names and signs in column order, every row's
(column, coefficient) pairs in insertion order with its right-hand
side, the objective over the columns plus its constant, and the sense.
"""

import hashlib

import pytest

from repro.core import (
    check_nonnegative_costs,
    difference_bound,
    synthesize,
)
from repro.core import lp as lp_module
from repro.core.handelman import CertificateProblem
from repro.deadline import DeadlineExceeded, deadline_scope
from repro.polynomials import LinForm, Polynomial
from repro.programs import get_benchmark
from repro.termination import synthesize_rsm


def lp_digest(lp) -> str:
    h = hashlib.sha256()
    for name in sorted(lp._index, key=lp._index.get):
        h.update(f"{name}:{int(lp._nonneg[lp._index[name]])};".encode())
    h.update(b"|rows|")
    for row, rhs in zip(lp._rows, lp._rhs):
        for name, coeff in row.items():
            h.update(f"{lp._index[name]}={float(coeff).hex()},".encode())
        h.update(f"={float(rhs).hex()};".encode())
    h.update(b"|obj|")
    objective = lp._objective
    if objective is not None:
        for index, coeff in sorted((lp._index[n], c) for n, c in objective.terms.items()):
            h.update(f"{index}={float(coeff).hex()},".encode())
        h.update(f"+{float(objective.const).hex()}".encode())
    h.update(f"|max={int(lp._maximize)}".encode())
    return h.hexdigest()


def _bench(name):
    bench = get_benchmark(name)
    return bench.cfg, bench.invariant_map(), bench.init


def _rdwalk_pucs():
    cfg, inv, init = _bench("rdwalk")
    synthesize(cfg, inv, init, kind="upper", degree=2)


def _rdwalk_plcs():
    cfg, inv, init = _bench("rdwalk")
    synthesize(cfg, inv, init, kind="lower", degree=2)


def _bitcoin_mining_plcs_policies():
    cfg, inv, init = _bench("bitcoin_mining")
    synthesize(cfg, inv, init, kind="lower", degree=1)


def _rdwalk_difference_bound():
    cfg, inv, init = _bench("rdwalk")
    upper = synthesize(cfg, inv, init, kind="upper", degree=1)
    difference_bound(cfg, inv, upper.h)


def _pol04_nonnegative_costs():
    cfg, inv, _ = _bench("pol04")
    check_nonnegative_costs(cfg, inv)


def _rdwalk_rsm():
    cfg, inv, init = _bench("rdwalk")
    synthesize_rsm(cfg, inv, init)


#: case -> SHA-256 of each LP it solves, in solve order (recorded on the
#: hand-assembled LPs that preceded :class:`CertificateProblem`).
PINNED = {
    "rdwalk_pucs": (
        _rdwalk_pucs,
        [
            "57c13cb1e109a8a0896286b77a5a7af82fc101e565557796e2e8e03057a1e82b",
        ],
    ),
    "rdwalk_plcs": (
        _rdwalk_plcs,
        [
            "1cd2745ee83939149cb3ddf44ab8dc1c7acd73c35b50c97a92b95a4333f4e47a",
        ],
    ),
    "bitcoin_mining_plcs_policies": (
        _bitcoin_mining_plcs_policies,
        [
            "16e4ed0b84d0b74daaf00023c6cac41deb52826491af6b068f882e9baeaffb52",
            "07bf23d2da493e60860a85261a6fdef634794abfb661bdf4eb262b7666876159",
        ],
    ),
    "rdwalk_difference_bound": (
        _rdwalk_difference_bound,
        [
            "994e136a44ec5ae199742262a08d6cae927bbb3ffc77821a27c4d8c28b51f575",
            "bcd778e8e940aa39ef3c81d5e2bd781d526b4889846238ba8d2a75a00d5882b1",
        ],
    ),
    "pol04_nonnegative_costs": (
        _pol04_nonnegative_costs,
        [
            "d87a342ae551883d0b3eecf1179311245d2686edd8fcbf8363891db565ec8a66",
        ],
    ),
    # Re-recorded when the ranking condition at a tick label dropped the
    # tick's cost (an RSM ranks steps, not cost): that row's constant
    # changed.
    "rdwalk_rsm": (
        _rdwalk_rsm,
        [
            "064d1cf1d20ea41e566dfcce27503c7367bec7e9d453fa03a81b08c55478991e",
        ],
    ),
}


def solved_lps(monkeypatch, run):
    """Every LP that reaches :meth:`LinearProgram.solve` during ``run()``."""
    lps = []
    real_solve = lp_module.LinearProgram.solve

    def recording_solve(self):
        lps.append(self)
        return real_solve(self)

    monkeypatch.setattr(lp_module.LinearProgram, "solve", recording_solve)
    run()
    return lps


@pytest.mark.parametrize("case", sorted(PINNED))
def test_lp_is_byte_identical(monkeypatch, case):
    run, expected = PINNED[case]
    assert [lp_digest(lp) for lp in solved_lps(monkeypatch, run)] == expected


@pytest.mark.parametrize(
    "consumer", ["synthesize", "difference_bound", "check_nonnegative_costs", "synthesize_rsm"]
)
def test_expired_deadline_stops_every_consumer(monkeypatch, consumer):
    cfg, inv, init = _bench("rdwalk")
    pol04_cfg, pol04_inv, _ = _bench("pol04")
    h = synthesize(cfg, inv, init, degree=1).h
    run = {
        "synthesize": lambda: synthesize(cfg, inv, init, degree=2),
        "difference_bound": lambda: difference_bound(cfg, inv, h),
        "check_nonnegative_costs": lambda: check_nonnegative_costs(pol04_cfg, pol04_inv),
        "synthesize_rsm": lambda: synthesize_rsm(cfg, inv, init),
    }[consumer]
    solved = []
    monkeypatch.setattr(lp_module.LinearProgram, "solve", lambda self: solved.append(self))
    with deadline_scope(1e-9):
        with pytest.raises(DeadlineExceeded):
            run()
    assert solved == []


class TestCertificateProblem:
    X = Polynomial.variable("x")

    def test_default_cap_is_target_degree(self):
        problem = CertificateProblem()
        problem.add_site("quad", self.X * self.X, [self.X])
        problem.add_site("const", Polynomial.constant(1.0), [self.X])
        # Products of at most 2 (resp. 1) copies of x, plus the constant 1.
        assert [len(site.multipliers) for site in problem.sites] == [3, 2]
        assert problem.sites[0].multipliers == ["c_quad_0", "c_quad_1", "c_quad_2"]

    def test_tagged_sites_follow_the_chosen_policy(self):
        problem = CertificateProblem(["a"])
        a = Polynomial.constant(LinForm.unknown("a"))
        problem.add_site("then", a - 3.0, [], tag=(5, 0))
        problem.add_site("else", a - 7.0, [], tag=(5, 1))
        assert problem.solve(LinForm.unknown("a")).objective == pytest.approx(3.0)
        assert problem.solve(LinForm.unknown("a"), choices={5: 1}).objective == pytest.approx(7.0)

    def test_site_order_is_untagged_then_tagged_by_label(self, monkeypatch):
        problem = CertificateProblem()
        one = Polynomial.constant(1.0)
        for name, tag in [("t2", (2, 0)), ("u1", None), ("t1", (1, 0)), ("t2b", (2, 0)), ("u2", None)]:
            problem.add_site(name, one, [], tag=tag)
        (lp,) = solved_lps(monkeypatch, lambda: problem.solve(LinForm(0.0)))
        columns = sorted(lp._index, key=lp._index.get)
        assert columns == ["c_u1_0", "c_u2_0", "c_t2_0", "c_t2b_0", "c_t1_0"]
