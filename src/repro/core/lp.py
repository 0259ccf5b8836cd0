"""Linear-programming step (Section 7, step (4)).

A thin, explicit wrapper over HiGHS.  The synthesis pipeline only needs:

* unknowns that are either free (template coefficients ``a_ij``) or
  nonnegative (Handelman multipliers ``c_k``);
* equality rows from coefficient matching;
* a linear objective (the bound value at the anchor valuation).

:meth:`LinearProgram.solve` is the one LP path.  It calls SciPy's
bundled HiGHS bindings (``scipy.optimize._highspy._core``) directly,
handing HiGHS the rowwise CSR arrays as-is: SciPy's public LP
wrapper re-validates and re-copies every input on each call, which
costs more than the simplex run on this pipeline's many small LPs.
The first solve in a process imports NumPy and loads that one
extension from its file (see :func:`_highs`); ``scipy.optimize``
itself, 500-odd modules and some 40 MB of resident memory, is never
imported.

A solve under an armed :mod:`repro.deadline` scope is bounded: HiGHS
gets the scope's remaining seconds as its time limit, and a run that
hits it raises :class:`~repro.deadline.DeadlineExceeded`.

Every HiGHS exit maps to exactly one outcome:

* ``kOptimal`` -> :class:`LPSolution`;
* ``kInfeasible`` -> :class:`~repro.errors.InfeasibleError`;
* ``kUnbounded`` -> :class:`~repro.errors.UnboundedError` once the
  presolve-off retry agrees (presolve can misjudge a badly scaled LP);
* ``kTimeLimit`` under an armed deadline ->
  :class:`~repro.deadline.DeadlineExceeded`, with no retry;
* any other model status is re-run once with presolve off, which
  settles e.g. presolve's ``kUnboundedOrInfeasible`` and ``kUnknown``;
  a status that is still none of the three, or a model HiGHS refuses
  to load, is a :class:`~repro.errors.SynthesisError` naming it.

Performance notes
-----------------
Equality rows are held sparsely (name -> coefficient dicts), duplicate
rows are dropped at insertion, and the constraint matrix is assembled
directly in CSR form — the dense ``np.zeros((rows, n))`` staging array
of the naive implementation dominated LP setup for larger templates.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from .. import deadline
from ..errors import CONSISTENCY_TOL, ZERO_TOL, InfeasibleError, SynthesisError, UnboundedError
from ..polynomials import LinForm

__all__ = [
    "LinearProgram",
    "LPSolution",
    "SOLVER_ID",
    "solve_count",
]

#: The one LP solver.  ``AnalysisReport.solver`` and the cache
#: fingerprint's ``"solver"`` entry record it.
SOLVER_ID = "highs"


#: The HiGHS extension's real module name: loading it under this name
#: lets a later ``import scipy.optimize`` (by user code) reuse the
#: module object instead of initialising the extension a second time.
_HIGHS_NAME = "scipy.optimize._highspy._core"
_HIGHS_LOCK = threading.Lock()
_HIGHS_MODULE = None


def _highs():
    """SciPy's bundled HiGHS bindings, loaded on the first solve.

    The extension file is located through ``scipy``'s import spec and
    loaded with :class:`importlib.machinery.ExtensionFileLoader`, so
    neither ``scipy/__init__`` nor ``scipy/optimize/__init__`` runs.
    The load happens once per process, under a lock, and the module
    is cached.  A SciPy without the file is an :class:`ImportError`
    naming the pinned series.
    """
    global _HIGHS_MODULE
    if _HIGHS_MODULE is None:
        with _HIGHS_LOCK:
            if _HIGHS_MODULE is None:
                _HIGHS_MODULE = _load_highs()
    return _HIGHS_MODULE


def _load_highs():
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(_HIGHS_NAME, path)
                spec = importlib.util.spec_from_file_location(_HIGHS_NAME, path, loader=loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                return module
    raise ImportError(
        "repro solves LPs through SciPy's bundled HiGHS bindings "
        f"({_HIGHS_NAME}), which this SciPy lacks; "
        "install the pinned series, scipy==1.17.*"
    )


#: Process-wide count of :meth:`LinearProgram.solve` calls.  Purely
#: observational (tests assert e.g. that strict-mode rejection runs
#: zero LP solves); never reset by library code.
_SOLVE_COUNT = [0]


def solve_count() -> int:
    """How many LP solves this process has executed so far."""
    return _SOLVE_COUNT[0]

#: Per-thread cache of configured HiGHS solver instances, keyed by
#: presolve setting.  Constructing ``_Highs()`` and pushing options
#: costs about as much as solving one of this pipeline's small LPs, so
#: solvers are reused (``clearModel`` between solves is ~100x cheaper).
_SOLVER_CACHE = threading.local()


def _cached_solver(h, presolve: Optional[str]):
    solvers = getattr(_SOLVER_CACHE, "solvers", None)
    if solvers is None:
        solvers = _SOLVER_CACHE.solvers = {}
    solver = solvers.get(presolve)
    if solver is None:
        solver = h._Highs()
        options = h.HighsOptions()
        options.output_flag = False
        if presolve is not None:
            options.presolve = presolve
        solver.passOptions(options)
        solvers[presolve] = solver
    else:
        solver.clearModel()
    return solver


def _arm_time_limit(solver) -> bool:
    """Cap the coming ``run()`` at the thread's remaining deadline
    budget; ``True`` when a deadline is armed.

    HiGHS measures ``time_limit`` on a run clock that accumulates over
    every ``run()`` of the (cached) solver, so the cap is that clock's
    reading plus the budget.  Without a deadline the limit goes back to
    infinity: the cached solver keeps its options between solves.
    """
    left = deadline.remaining()
    if left is None:
        solver.setOptionValue("time_limit", float("inf"))
        return False
    deadline.check_deadline()
    solver.setOptionValue("time_limit", solver.getRunTime() + max(left, 0.0))
    return True


@dataclass
class LPSolution:
    """A solved LP: unknown values plus solver metadata."""

    values: Dict[str, float]
    objective: float
    num_variables: int
    num_equalities: int

    def __getitem__(self, name: str) -> float:
        return self.values[name]


class LinearProgram:
    """An LP under construction: ``min/max c.x  s.t.  A_eq x = b, bounds``."""

    def __init__(self):
        self._index: Dict[str, int] = {}
        self._nonneg: List[bool] = []
        self._rows: List[Dict[str, float]] = []
        self._rhs: List[float] = []
        self._row_keys: set = set()
        self._objective: Optional[LinForm] = None
        self._maximize = False

    # -- construction -------------------------------------------------------

    def add_unknown(self, name: str, nonnegative: bool = False) -> None:
        """Register an unknown; re-registration must agree on the sign."""
        if name in self._index:
            if self._nonneg[self._index[name]] != nonnegative:
                raise SynthesisError(f"unknown {name!r} registered with conflicting signs")
            return
        self._index[name] = len(self._nonneg)
        self._nonneg.append(nonnegative)

    def add_equality(self, coeffs: Mapping[str, float], rhs: float) -> None:
        """Add the row ``sum(coeffs[u] * u) = rhs``.

        Unknowns must have been registered.  All-zero rows are checked
        for consistency immediately, and rows identical to an existing
        one (same coefficients and right-hand side) are dropped.
        """
        # Coefficients at or below ZERO_TOL (1e-12) are dropped from
        # mixed rows: HiGHS itself zeroes matrix entries below its
        # ``small_matrix_value`` tolerance (1e-9), so keeping them would
        # not change the solve — dropping them here just makes the rows
        # canonical enough for the duplicate check below to fire.
        cleaned = {}
        dropped = {}
        for name, coeff in coeffs.items():
            if name not in self._index:
                raise SynthesisError(f"equality references unregistered unknown {name!r}")
            if abs(coeff) > ZERO_TOL:
                cleaned[name] = float(coeff)
            elif coeff != 0.0:
                dropped[name] = float(coeff)
        if not cleaned:
            if dropped:
                # Every coefficient is sub-tolerance but not exactly
                # zero: badly scaled, yet a real constraint.  Keep the
                # tiny coefficients (seed behavior) rather than either
                # fabricating 0 = rhs or silently deleting the row.
                cleaned = dropped
            elif abs(rhs) > CONSISTENCY_TOL:
                raise InfeasibleError(f"contradictory constant equality 0 = {rhs}")
            else:
                return
        key = (tuple(sorted(cleaned.items())), float(rhs))
        if key in self._row_keys:
            return
        self._row_keys.add(key)
        self._rows.append(cleaned)
        self._rhs.append(float(rhs))

    def set_objective(self, form: LinForm, maximize: bool = False) -> None:
        for name in form.terms:
            if name not in self._index:
                raise SynthesisError(f"objective references unregistered unknown {name!r}")
        self._objective = form
        self._maximize = maximize

    # -- inspection -----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._index)

    @property
    def num_equalities(self) -> int:
        return len(self._rows)

    # -- solving ----------------------------------------------------------------

    def _highs_lp(self, h):
        """The program as a ``HighsLp``: rowwise CSR, ``row_lower ==
        row_upper`` for the equalities, minimization sense."""
        import numpy as np

        n = len(self._index)
        c = np.zeros(n)
        if self._objective is not None:
            for name, coeff in self._objective.terms.items():
                c[self._index[name]] = coeff
        if self._maximize:
            c = -c

        index = self._index
        data: List[float] = []
        indices: List[int] = []
        indptr: List[int] = [0]
        for row in self._rows:
            for name, coeff in row.items():
                indices.append(index[name])
                data.append(coeff)
            indptr.append(len(indices))
        b_eq = np.asarray(self._rhs, dtype=np.float64)

        lp = h.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = len(self._rows)
        lp.a_matrix_.format_ = h.MatrixFormat.kRowwise
        lp.a_matrix_.num_col_ = n
        lp.a_matrix_.num_row_ = len(self._rows)
        lp.a_matrix_.start_ = np.asarray(indptr, dtype=np.int32)
        lp.a_matrix_.index_ = np.asarray(indices, dtype=np.int32)
        lp.a_matrix_.value_ = np.asarray(data, dtype=np.float64)
        lp.col_cost_ = c
        inf = h.kHighsInf
        lower = np.full(n, -inf)
        lower[np.fromiter(self._nonneg, dtype=bool, count=n)] = 0.0
        lp.col_lower_ = lower
        lp.col_upper_ = np.full(n, inf)
        lp.row_lower_ = b_eq
        lp.row_upper_ = b_eq
        return lp

    def solve(self) -> LPSolution:
        """Solve with HiGHS (see the module docstring for how each
        HiGHS exit maps to a result or a typed error)."""
        n = len(self._index)
        if n == 0:
            raise SynthesisError("linear program has no unknowns")

        _SOLVE_COUNT[0] += 1
        h = _highs()
        lp = self._highs_lp(h)
        size = f"{len(self._rows)} rows x {n} columns"
        unresolved = []
        for presolve in (None, "off"):
            solver = _cached_solver(h, presolve)
            if solver.passModel(lp) == h.HighsStatus.kError:
                largest = max((abs(v) for row in self._rows for v in row.values()), default=0.0)
                raise SynthesisError(
                    f"HiGHS rejected the LP ({size}) in passModel; "
                    f"largest |coefficient| {largest:.3g}"
                )
            bounded = _arm_time_limit(solver)
            solver.run()
            status = solver.getModelStatus()
            if status == h.HighsModelStatus.kOptimal:
                break
            if status == h.HighsModelStatus.kInfeasible:
                raise InfeasibleError(
                    "no Handelman certificate of the requested degree exists; "
                    "try a higher template degree, a larger multiplicand cap, "
                    "or stronger invariants"
                )
            if status == h.HighsModelStatus.kUnbounded and presolve == "off":
                raise UnboundedError(
                    "LP objective is unbounded; the invariant is too weak to pin a bound"
                )
            if status == h.HighsModelStatus.kTimeLimit and bounded:
                raise deadline.DeadlineExceeded(
                    f"cooperative deadline reached inside HiGHS ({size})"
                )
            unresolved.append(status.name)
        else:
            raise SynthesisError(
                f"HiGHS could not solve the LP ({size}): model status "
                f"{unresolved[0]} with presolve on, {unresolved[1]} with presolve off"
            )

        x = solver.getSolution().col_value
        fun = solver.getInfo().objective_function_value
        offset = self._objective.const if self._objective is not None else 0.0
        values = {name: float(x[idx]) for name, idx in self._index.items()}
        objective = float(fun) * (-1.0 if self._maximize else 1.0) + offset
        return LPSolution(
            values=values,
            objective=objective,
            num_variables=n,
            num_equalities=len(self._rows),
        )
