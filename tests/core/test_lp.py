"""LP solve tests: every HiGHS exit maps to exactly one outcome."""

import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import LinearProgram
from repro.core import lp as lp_module
from repro.deadline import DeadlineExceeded, deadline_scope
from repro.errors import InfeasibleError, SynthesisError, UnboundedError


def program(columns, rows, cost, offset=0.0, maximize=False) -> LinearProgram:
    """An LP over named columns: ``columns`` maps name -> nonnegative,
    ``rows`` are ``({name: coeff}, rhs)`` and ``cost`` is ``{name: coeff}``."""
    names = list(columns)
    col = {name: j for j, name in enumerate(names)}
    starts, index, value, rhs = [0], [], [], []
    for coeffs, b in rows:
        for name, coeff in coeffs.items():
            index.append(col[name])
            value.append(coeff)
        starts.append(len(index))
        rhs.append(b)
    vector = [0.0] * len(names)
    for name, coeff in cost.items():
        vector[col[name]] = coeff
    return LinearProgram(
        names=names,
        nonneg=[columns[name] for name in names],
        starts=starts,
        index=index,
        value=value,
        rhs=rhs,
        cost=vector,
        offset=offset,
        maximize=maximize,
    )


def test_simple_minimization():
    lp = program({"x": True, "y": True}, [({"x": 1.0, "y": 1.0}, 10.0)], {"x": 1.0})
    sol = lp.solve()
    assert sol.values["x"] == pytest.approx(0.0)
    assert sol.values["y"] == pytest.approx(10.0)
    assert sol.objective == pytest.approx(0.0)


def test_maximization():
    lp = program({"x": True, "y": True}, [({"x": 1.0, "y": 2.0}, 8.0)], {"x": 1.0}, maximize=True)
    assert lp.solve().objective == pytest.approx(8.0)


def test_free_variables_can_go_negative():
    lp = program({"a": False, "c": True}, [({"a": 1.0, "c": 1.0}, -5.0)], {"a": 1.0}, maximize=True)
    assert lp.solve().values["a"] == pytest.approx(-5.0)


def test_objective_offset():
    lp = program({"x": True}, [({"x": 1.0}, 3.0)], {"x": 1.0}, offset=7.0)
    assert lp.solve().objective == pytest.approx(10.0)


def test_infeasible():
    lp = program({"x": True}, [({"x": 1.0}, -2.0)], {"x": 1.0})
    with pytest.raises(InfeasibleError):
        lp.solve()


def test_unbounded():
    lp = program({"a": False}, [], {"a": 1.0}, maximize=True)
    with pytest.raises(UnboundedError):
        lp.solve()


def test_row_free_optimal():
    sol = program({"a": True}, [], {"a": 1.0}, offset=2.0).solve()
    assert sol.num_equalities == 0
    assert sol.objective == pytest.approx(2.0)


def test_empty_lp_rejected():
    with pytest.raises(SynthesisError):
        program({}, [], {}).solve()


def test_solution_indexing():
    sol = program({"x": True}, [({"x": 2.0}, 4.0)], {"x": 1.0}).solve()
    assert sol["x"] == pytest.approx(2.0)


def test_solution_reports_named_columns_only():
    # min x  s.t.  x + c = 10: x is named, c one anonymous multiplier.
    lp = LinearProgram(names=["x"], nonneg=[True, True], starts=[0, 2], index=[0, 1],
                       value=[1.0, 1.0], rhs=[10.0], cost=[1.0, 0.0], ranges=[("c_s", 1)])
    assert lp.column_names() == ["x", "c_s_0"]
    assert lp.solve().values == {"x": pytest.approx(0.0)}


def _feasible_lp() -> LinearProgram:
    # min x  s.t.  x + y = 10, x, y >= 0  ->  x = 0.
    return program({"x": True, "y": True}, [({"x": 1.0, "y": 1.0}, 10.0)], {"x": 1.0})


def _script_highs(monkeypatch, on=None, off=None):
    """Make HiGHS report model status ``on`` (presolve on) / ``off``
    (presolve off) — ``None`` keeps the real one — and record every
    ``(presolve, status name)`` a solve saw."""
    real = lp_module._cached_solver
    seen = []

    class Scripted:
        def __init__(self, solver, presolve, name):
            self._solver, self._presolve, self._name = solver, presolve, name

        def __getattr__(self, attr):
            return getattr(self._solver, attr)

        def getModelStatus(self):
            status = self._solver.getModelStatus()
            if self._name is not None:
                status = getattr(type(status), self._name)
            seen.append((self._presolve, status.name))
            return status

    def cached(h, presolve):
        setting = "on" if presolve is None else "off"
        return Scripted(real(h, presolve), setting, on if setting == "on" else off)

    monkeypatch.setattr(lp_module, "_cached_solver", cached)
    return seen


class TestHighsOutcomes:
    """Each HiGHS model status lands on exactly one result or error."""

    def test_optimal_solves_once(self, monkeypatch):
        seen = _script_highs(monkeypatch)
        assert _feasible_lp().solve().objective == pytest.approx(0.0)
        assert seen == [("on", "kOptimal")]

    @pytest.mark.parametrize(
        "on, error, retried",
        [
            pytest.param("kInfeasible", InfeasibleError, False, id="kInfeasible-InfeasibleError"),
            # Presolve's kUnbounded is final only once the presolve-off
            # retry agrees (see test_presolve_unbounded_is_overruled).
            pytest.param("kUnbounded", UnboundedError, True, id="kUnbounded-UnboundedError"),
        ],
    )
    def test_decided_status_is_final(self, monkeypatch, on, error, retried):
        seen = _script_highs(monkeypatch, on=on, off=on)
        with pytest.raises(error):
            _feasible_lp().solve()
        assert seen == [("on", on), ("off", on)] if retried else [("on", on)]

    def test_presolve_unbounded_is_overruled(self, monkeypatch):
        seen = _script_highs(monkeypatch, on="kUnbounded")
        assert _feasible_lp().solve().objective == pytest.approx(0.0)
        assert seen == [("on", "kUnbounded"), ("off", "kOptimal")]

    def test_queue_octagon_n280_settles_at_degree_2(self):
        # The degree-2 PUCS LP (300 x 1,101, |coefficients| 0.02 to
        # 78,961) is kUnbounded with presolve on and optimal without;
        # taking presolve's verdict as final climbed to a degree-4 LP
        # that ran for minutes.
        from repro.api import Analyzer

        with Analyzer(cache=None, jobs=1) as analyzer:
            report = analyzer.analyze(
                "queuing_network",
                init={"l1": 0.0, "l2": 0.0, "i": 1.0, "n": 280.0},
                degree="auto",
                invariant_domain="octagon",
            )
        assert report.status == "ok" and report.warnings == []
        assert report.degree == 2
        assert report.upper_value == pytest.approx(26.2113, abs=1e-4)
        assert report.lower_value == pytest.approx(7.812, abs=1e-6)

    def test_unknown_retries_without_presolve(self, monkeypatch):
        seen = _script_highs(monkeypatch, on="kUnknown")
        assert _feasible_lp().solve().objective == pytest.approx(0.0)
        assert seen == [("on", "kUnknown"), ("off", "kOptimal")]

    @pytest.mark.parametrize(
        "on, off, error",
        [
            ("kUnboundedOrInfeasible", "kInfeasible", InfeasibleError),
            ("kUnboundedOrInfeasible", "kUnbounded", UnboundedError),
            ("kSolveError", "kInfeasible", InfeasibleError),
        ],
    )
    def test_retry_verdict_is_mapped(self, monkeypatch, on, off, error):
        seen = _script_highs(monkeypatch, on=on, off=off)
        with pytest.raises(error):
            _feasible_lp().solve()
        assert seen == [("on", on), ("off", off)]

    @pytest.mark.parametrize(
        "on, off",
        [
            ("kSolveError", "kUnknown"),
            ("kTimeLimit", "kIterationLimit"),
            ("kUnknown", "kUnknown"),
            ("kUnbounded", "kUnknown"),
        ],
    )
    def test_unresolved_status_is_a_synthesis_error_naming_it(self, monkeypatch, on, off):
        _script_highs(monkeypatch, on=on, off=off)
        with pytest.raises(SynthesisError) as info:
            _feasible_lp().solve()
        assert not isinstance(info.value, (InfeasibleError, UnboundedError))
        assert f"model status {on} with presolve on, {off} with presolve off" in str(info.value)

    def test_rejected_model_is_not_reported_infeasible(self):
        # 1e18 is beyond HiGHS's matrix-value limit.
        lp = program({"x": True}, [({"x": 1e18}, 1.0)], {"x": 1.0})
        with pytest.raises(SynthesisError, match="HiGHS rejected the LP .* in passModel") as info:
            lp.solve()
        assert not isinstance(info.value, InfeasibleError)
        assert "1e+18" in str(info.value)

    def test_queue_lp_without_hand_invariants_is_unresolved(self):
        # The 700 x 1,776 degree-3 LP of queuing_network over interval
        # invariants alone: HiGHS ends in kSolveError, then kUnknown.
        from repro.analysis.bounds import analyze
        from repro.programs import get_benchmark

        queue = get_benchmark("queuing_network")
        result = analyze(queue.program, init=queue.init, degree=queue.degree, compute_lower=False)
        assert result.upper is None
        assert result.warnings == [
            "no degree-3 upper bound: HiGHS could not solve the LP (700 rows x 1776 columns): "
            "model status kSolveError with presolve on, kUnknown with presolve off"
        ]

    def test_fuzz_seed_106_unknown_settles_infeasible(self, monkeypatch):
        # Presolve leaves one of this program's LPs at kUnknown; the
        # presolve-off retry proves it infeasible.
        from repro.fuzz.harness import Harness

        seen = _script_highs(monkeypatch)
        assert Harness().run_one(106).classification == "infeasible"
        retried = [i for i, entry in enumerate(seen) if entry == ("on", "kUnknown")]
        assert retried
        assert all(seen[i + 1] == ("off", "kInfeasible") for i in retried)


class _Captured(Exception):
    pass


def _prepared_queue_octagon_degree_4_lp() -> LinearProgram:
    """The 1,400 x 10,106 degree-4 PUCS LP of queuing_network at n=280
    over octagon invariants, assembled but not solved.  Without a time
    limit HiGHS runs for many minutes on it."""
    from repro.analysis.bounds import strengthen_invariants
    from repro.core import synthesize
    from repro.programs import get_benchmark

    def capture(self):
        raise _Captured(self)

    queue = get_benchmark("queuing_network")
    init = {"l1": 0.0, "l2": 0.0, "i": 1.0, "n": 280.0}
    inv = queue.invariant_map()
    strengthen_invariants(inv, queue.cfg, init, "octagon")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinearProgram, "solve", capture)
        with pytest.raises(_Captured) as captured:
            synthesize(queue.cfg, inv, init, kind="upper", degree=4)
    return captured.value.args[0]


class TestDeadline:
    """A solve under an armed deadline stops when the budget runs out."""

    def test_hard_lp_stops_at_the_deadline(self):
        lp = _prepared_queue_octagon_degree_4_lp()
        assert (lp.num_equalities, lp.num_variables) == (1400, 10106)
        for _ in range(2):  # the cached solver's run clock accumulates
            start = time.perf_counter()
            with pytest.raises(DeadlineExceeded, match="inside HiGHS"):
                with deadline_scope(1.0):
                    lp.solve()
            assert time.perf_counter() - start < 1.5

    def test_time_limit_is_a_timeout_without_retry(self, monkeypatch):
        seen = _script_highs(monkeypatch, on="kTimeLimit")
        with pytest.raises(DeadlineExceeded):
            with deadline_scope(60.0):
                _feasible_lp().solve()
        assert seen == [("on", "kTimeLimit")]

    def test_expired_deadline_runs_no_solve(self, monkeypatch):
        seen = _script_highs(monkeypatch)
        with pytest.raises(DeadlineExceeded):
            with deadline_scope(1e-9):
                time.sleep(0.001)
                _feasible_lp().solve()
        assert seen == []

    def test_limit_is_lifted_after_the_scope(self):
        # The per-thread cached solver keeps its options between solves.
        def time_limit():
            solver = lp_module._cached_solver(lp_module._highs(), None)
            return solver.getOptionValue("time_limit")[1]

        with deadline_scope(60.0):
            _feasible_lp().solve()
        assert time_limit() < float("inf")
        _feasible_lp().solve()
        assert time_limit() == float("inf")


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this ``repro``."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert completed.returncode == 0, completed.stderr


_SOLVE = """
from repro.core import LinearProgram

def solve():
    # max y  s.t.  x + y = 10, x, y >= 0.
    lp = LinearProgram(names=["x", "y"], nonneg=[True, True], starts=[0, 2], index=[0, 1],
                       value=[1.0, 1.0], rhs=[10.0], cost=[0.0, 1.0], maximize=True)
    return lp.solve().objective
"""


class TestHighsBindings:
    def test_missing_bindings_name_the_scipy_pin(self, monkeypatch, tmp_path):
        # A SciPy tree whose optimize/_highspy/ holds no _core extension.
        (tmp_path / "optimize" / "_highspy").mkdir(parents=True)
        real_find_spec = importlib.util.find_spec

        def find_spec(name, package=None):
            if name != "scipy":
                return real_find_spec(name, package)
            spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
            spec.submodule_search_locations = [str(tmp_path)]
            return spec

        monkeypatch.setattr(importlib.util, "find_spec", find_spec)
        monkeypatch.setattr(lp_module, "_HIGHS_MODULE", None)
        with pytest.raises(ImportError, match=r"scipy==1\.17\.\*"):
            _feasible_lp().solve()

    @pytest.mark.parametrize(
        "code",
        [
            "import repro",
            "from repro.cli import main; assert main(['lint', '--benchmark', 'rdwalk']) == 0",
        ],
        ids=["import", "lint"],
    )
    def test_bindings_load_on_first_solve_only(self, code):
        _run_fresh(
            code + "; import sys; assert 'numpy' not in sys.modules; "
            "assert 'scipy.optimize' not in sys.modules"
        )

    def test_solves_never_import_scipy_optimize(self):
        _run_fresh(
            "from repro.cli import main; assert main(['bench', 'rdwalk']) == 0; "
            "import sys; assert 'scipy.optimize' not in sys.modules, 'scipy.optimize'"
        )

    def test_scipy_optimize_works_alongside_the_direct_load(self):
        _run_fresh(
            _SOLVE
            + """
assert solve() == 10.0
from scipy.optimize import linprog
assert linprog([1, 1], A_eq=[[1, 1]], b_eq=[3]).fun == 3.0
assert solve() == 10.0
"""
        )

    def test_concurrent_first_solves(self):
        _run_fresh(
            _SOLVE
            + """
import threading
start = threading.Barrier(2)
results = []

def first_solve():
    start.wait()
    results.append(solve())

threads = [threading.Thread(target=first_solve) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
assert not any(thread.is_alive() for thread in threads)
assert results == [10.0, 10.0], results
"""
        )
