"""Every Handelman LP reaches HiGHS exactly as it was first pinned.

HiGHS verdicts on badly scaled LPs depend on how the LP is presented —
column and row order included — so "same optimum" is not enough: each
LP is hashed at the moment :meth:`LinearProgram.solve` is called.  The
digest covers the column names and signs in column order, every row's
(column, coefficient) pairs in CSR order with its right-hand side, the
objective's nonzero coefficients by column plus its constant, and the
sense.
"""

import dataclasses
import hashlib

import pytest

from repro.api import AnalysisOptions
from repro.core import (
    check_nonnegative_costs,
    difference_bound,
    synthesize,
)
from repro.core import lp as lp_module
from repro.core import synthesis as synthesis_module
from repro.core.handelman import CertificateProblem, CompiledTarget
from repro.deadline import DeadlineExceeded, deadline_scope
from repro.errors import InfeasibleError, SynthesisError
from repro.polynomials import LinForm, Monomial, Polynomial
from repro.programs import get_benchmark
from repro.termination import synthesize_rsm


def lp_digest(lp) -> str:
    h = hashlib.sha256()
    for name, nonneg in zip(lp.column_names(), lp.nonneg):
        h.update(f"{name}:{int(nonneg)};".encode())
    h.update(b"|rows|")
    for row, rhs in enumerate(lp.rhs):
        for at in range(lp.starts[row], lp.starts[row + 1]):
            h.update(f"{lp.index[at]}={float(lp.value[at]).hex()},".encode())
        h.update(f"={float(rhs).hex()};".encode())
    h.update(b"|obj|")
    for index, coeff in enumerate(lp.cost):
        if coeff != 0.0:
            h.update(f"{index}={float(coeff).hex()},".encode())
    h.update(f"+{float(lp.offset).hex()}".encode())
    h.update(f"|max={int(lp.maximize)}".encode())
    return h.hexdigest()


def _fresh(name):
    """Registry benchmark ``name`` on a CFG of its own, so its template
    memo starts cold."""
    return dataclasses.replace(get_benchmark(name))


def _bench(name, fresh=False):
    bench = _fresh(name) if fresh else get_benchmark(name)
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


CONSUMERS = ["synthesize", "difference_bound", "check_nonnegative_costs", "synthesize_rsm"]


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_expired_deadline_stops_every_consumer(monkeypatch, consumer):
    assert_deadline_stops(monkeypatch, consumer, warm=False)


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_expired_deadline_stops_every_consumer_with_a_warm_memo(monkeypatch, consumer):
    # Every site target now comes from the memo: the per-site
    # checkpoint must fire all the same.
    assert_deadline_stops(monkeypatch, consumer, warm=True)


def assert_deadline_stops(monkeypatch, consumer, warm):
    cfg, inv, init = _bench("rdwalk", fresh=True)
    pol04_cfg, pol04_inv, _ = _bench("pol04", fresh=True)
    h = synthesize(cfg, inv, init, degree=1).h
    run = {
        "synthesize": lambda: synthesize(cfg, inv, init, degree=2),
        "difference_bound": lambda: difference_bound(cfg, inv, h),
        "check_nonnegative_costs": lambda: check_nonnegative_costs(pol04_cfg, pol04_inv),
        "synthesize_rsm": lambda: synthesize_rsm(cfg, inv, init),
    }[consumer]
    if warm:
        run()
    solved = []
    monkeypatch.setattr(lp_module.LinearProgram, "solve", lambda self: solved.append(self))
    with deadline_scope(1e-9):
        with pytest.raises(DeadlineExceeded):
            run()
    assert solved == []


#: Per benchmark: a second anchor and a request in the other domain,
#: both served after a first request has warmed the template memo.
WARM_REQUESTS = {
    "rdwalk": [AnalysisOptions(init={"x": 7.0}), AnalysisOptions(invariant_domain="octagon")],
    # Nondeterministic: PLCS sites tagged by policy, several LPs.
    "bitcoin_mining": [AnalysisOptions(init={"x": 9.0}), AnalysisOptions(invariant_domain="octagon")],
}


def _analyze(bench, options):
    return bench.analyze(options, check_concentration=True)


@pytest.mark.parametrize("name", sorted(WARM_REQUESTS))
def test_warm_memo_poses_the_same_lps(monkeypatch, name):
    warm = _fresh(name)
    _analyze(warm, AnalysisOptions())
    for options in WARM_REQUESTS[name]:
        served = [lp_digest(lp) for lp in solved_lps(monkeypatch, lambda: _analyze(warm, options))]
        cold = [lp_digest(lp) for lp in solved_lps(monkeypatch, lambda: _analyze(_fresh(name), options))]
        assert served and served == cold


def test_second_request_compiles_no_synthesis_target(monkeypatch):
    compiled = []

    def counting(*args):
        compiled.append(args)
        return CompiledTarget(*args)

    monkeypatch.setattr(synthesis_module, "CompiledTarget", counting)
    bench = _fresh("rdwalk")
    _analyze(bench, AnalysisOptions())
    assert compiled  # the memo compiles through the counted name
    compiled.clear()
    _analyze(bench, AnalysisOptions(init={"x": 7.0}))
    assert compiled == []


class TestCertificateProblem:
    X = Polynomial.variable("x")

    def test_compiled_target_is_checked_against_the_columns(self):
        target = Polynomial.constant(LinForm.unknown("a")) * self.X
        compiled = CompiledTarget(target, CertificateProblem(["a"]).columns)
        problem = CertificateProblem(["a"])
        assert problem.columns is compiled.columns  # one shared map per unknowns
        problem.add_site("s", compiled, [self.X])
        plain = CertificateProblem(["a"])
        plain.add_site("s", target, [self.X])
        assert problem.sites == plain.sites
        with pytest.raises(SynthesisError, match="another numbering"):
            CertificateProblem(["b", "a"]).add_site("s", compiled, [self.X])

    def test_default_cap_is_target_degree(self, monkeypatch):
        problem = CertificateProblem()
        problem.add_site("quad", self.X * self.X, [self.X])
        problem.add_site("const", Polynomial.constant(1.0), [self.X])
        # Products of at most 2 (resp. 1) copies of x, plus the constant 1.
        assert [len(site.block) for site in problem.sites] == [3, 2]
        (lp,) = solved_lps(monkeypatch, lambda: problem.solve(LinForm(0.0)))
        assert lp.column_names() == ["c_quad_0", "c_quad_1", "c_quad_2", "c_const_0", "c_const_1"]

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
        columns = lp.column_names()
        assert columns == ["c_u1_0", "c_u2_0", "c_t2_0", "c_t2b_0", "c_t1_0"]


def named_rows(lp):
    """The LP's rows as ``({column name: coeff}, rhs)``, in row order."""
    names = lp.column_names()
    return [
        ({names[lp.index[at]]: lp.value[at] for at in range(lp.starts[row], lp.starts[row + 1])}, rhs)
        for row, rhs in enumerate(lp.rhs)
    ]


class _Assembled(Exception):
    pass


def _capture(lp):
    raise _Assembled(lp)


def _lin(const, **terms):
    return Polynomial.constant(LinForm(const, terms))


class TestCertificateRows:
    """Row cleaning, as HiGHS receives the rows.  With ``Gamma = []``
    the only product is 1, so a target monomial other than 1 gives a row
    over the unknowns alone: ``coeff = 0``."""

    X, Y, Z = Polynomial.variable("x"), Polynomial.variable("y"), Polynomial.variable("z")

    def rows_of(self, monkeypatch, problem):
        """The rows ``problem.solve`` hands HiGHS, left unsolved."""
        monkeypatch.setattr(lp_module.LinearProgram, "solve", _capture)
        with pytest.raises(_Assembled) as assembled:
            problem.solve(LinForm(0.0))
        return named_rows(assembled.value.args[0])

    def test_subtolerance_coefficients_dropped_from_mixed_rows(self, monkeypatch):
        problem = CertificateProblem(["a", "b"])
        problem.add_site("s", self.X * _lin(-2.0, a=1.0, b=1e-15), [], cap=0)
        assert self.rows_of(monkeypatch, problem) == [({"a": 1.0}, 2.0), ({"c_s_0": -1.0}, 0.0)]

    def test_all_subtolerance_row_is_kept_not_deleted(self, monkeypatch):
        # Tiny-but-nonzero everywhere: badly scaled, yet a real
        # constraint, so it neither raises nor vanishes.
        problem = CertificateProblem(["c"], nonnegative=True)
        target = self.X * _lin(-5e-10, c=5e-13) + self.Y * _lin(-1.0, c=5e-13)
        problem.add_site("s", target, [], cap=0)
        assert self.rows_of(monkeypatch, problem) == [
            ({"c": 5e-13}, 5e-10),  # forces c = 1000
            ({"c": 5e-13}, 1.0),  # badly scaled, not contradictory
            ({"c_s_0": -1.0}, 0.0),
        ]

    def test_exact_zero_row_is_skipped(self, monkeypatch):
        # Arithmetic prunes zero coefficients; a raw zero gives 0 = 0.
        zero = Polynomial._raw({Monomial.variable("x"): LinForm(0.0)})
        problem = CertificateProblem()
        problem.add_site("s", zero, [], cap=0)
        assert self.rows_of(monkeypatch, problem) == [({"c_s_0": -1.0}, 0.0)]

    @pytest.mark.parametrize("coeff", [-1.0, LinForm(-1.0, {"a": 0.0})], ids=["number", "zero-form"])
    def test_zero_row_with_large_rhs_is_contradictory(self, monkeypatch, coeff):
        problem = CertificateProblem(["a"])
        problem.add_site("s", self.X * Polynomial.constant(coeff), [], cap=0)
        solved = solved_lps(monkeypatch, lambda: None)
        before = lp_module.solve_count()
        with pytest.raises(InfeasibleError, match="0 = 1.0"):
            problem.solve(LinForm(0.0))
        assert solved == [] and lp_module.solve_count() == before

    def test_duplicate_rows_deduplicated(self, monkeypatch):
        problem = CertificateProblem(["a"])
        target = self.X * _lin(-1.0, a=2.0) + self.Y * _lin(-1.0, a=2.0) + self.Z * _lin(-3.0, a=2.0)
        problem.add_site("s", target, [], cap=0)
        # Unknown-only rows repeat across sites too.
        problem.add_site("t", target, [], cap=0)
        assert self.rows_of(monkeypatch, problem) == [
            ({"a": 2.0}, 1.0),
            ({"a": 2.0}, 3.0),  # same coefficients, another rhs: kept
            ({"c_s_0": -1.0}, 0.0),
            ({"c_t_0": -1.0}, 0.0),
        ]

    def test_duplicate_block_rows_deduplicated_within_a_site(self, monkeypatch):
        # x and y appear only in the product x + y: both rows read -c_1 = 0.
        problem = CertificateProblem()
        problem.add_site("s", Polynomial.constant(1.0), [self.X + self.Y], cap=1)
        assert self.rows_of(monkeypatch, problem) == [({"c_s_0": -1.0}, -1.0), ({"c_s_1": -1.0}, 0.0)]

    def test_unregistered_unknowns_rejected(self):
        problem = CertificateProblem(["a"])
        with pytest.raises(SynthesisError, match="ghost"):
            problem.add_site("s", _lin(0.0, ghost=1.0), [])
        problem.add_site("s", _lin(0.0, a=1.0), [])
        with pytest.raises(SynthesisError, match="ghost"):
            problem.solve(LinForm.unknown("ghost"))

    def test_repeated_unknown_has_one_column(self):
        problem = CertificateProblem(["x", "x"])
        assert problem.unknowns == ["x"]
        problem.add_site("s", _lin(-2.0, x=1.0), [])
        solution = problem.solve(LinForm.unknown("x"))
        assert solution.values == {"x": pytest.approx(2.0)}
        assert solution.num_variables == 2
