"""Linear-programming step (Section 7, step (4)).

A thin, explicit wrapper over HiGHS.  The synthesis pipeline only needs:

* columns that are either free (template coefficients ``a_ij``) or
  nonnegative (Handelman multipliers ``c_k``);
* equality rows from coefficient matching;
* a linear objective (the bound value at the anchor valuation).

:meth:`LinearProgram.solve` is the one LP path.  It calls SciPy's
bundled HiGHS bindings (``scipy.optimize._highspy._core``) directly,
handing HiGHS the rowwise CSR arrays as they are: SciPy's public LP
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
A :class:`LinearProgram` holds only arrays: the rowwise CSR matrix,
right-hand sides, per-column signs and the cost vector, with columns
numbered by :class:`~repro.core.handelman.CertificateProblem` (which
also cleans and deduplicates the rows).  No row is keyed by a name
string, and names exist only for the named unknowns that
:class:`LPSolution` reports; :meth:`LinearProgram.column_names` builds
the rest on demand.  The CSR lists go to HiGHS as they are: its
bindings copy a plain list into a vector field faster than a NumPy
array.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import deadline
from ..errors import InfeasibleError, SynthesisError, UnboundedError

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
    """A solved LP: the named unknowns' values plus solver metadata."""

    values: Dict[str, float]
    objective: float
    num_variables: int
    num_equalities: int

    def __getitem__(self, name: str) -> float:
        return self.values[name]


class LinearProgram:
    """An assembled LP: ``min/max cost.x + offset  s.t.  A x = rhs``,
    with ``x_j >= 0`` where ``nonneg[j]`` and ``x_j`` free otherwise.

    ``A`` is rowwise CSR: row ``i`` has the coefficients
    ``value[starts[i]:starts[i + 1]]`` at the columns ``index[...]``.
    The first ``len(names)`` columns are the named unknowns that
    :class:`LPSolution` reports; the rest are anonymous (Handelman
    multipliers), covered in order by ``ranges`` of ``(prefix, width)``
    so that :meth:`column_names` can name them ``<prefix>_<k>``.
    :class:`~repro.core.handelman.CertificateProblem` builds these.
    """

    def __init__(
        self,
        names: Sequence[str],
        nonneg: Sequence[bool],
        starts: Sequence[int],
        index: Sequence[int],
        value: Sequence[float],
        rhs: Sequence[float],
        cost: Sequence[float],
        offset: float = 0.0,
        maximize: bool = False,
        ranges: Sequence[Tuple[str, int]] = (),
    ):
        self.names = names
        self.nonneg = nonneg
        self.starts = starts
        self.index = index
        self.value = value
        self.rhs = rhs
        self.cost = cost
        self.offset = offset
        self.maximize = maximize
        self.ranges = ranges

    # -- inspection -----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.nonneg)

    @property
    def num_equalities(self) -> int:
        return len(self.rhs)

    def column_names(self) -> List[str]:
        """Every column's name, in column order (built on demand)."""
        names = list(self.names)
        for prefix, width in self.ranges:
            names.extend(f"{prefix}_{k}" for k in range(width))
        return names

    # -- solving ----------------------------------------------------------------

    def _highs_lp(self, h):
        """The program as a ``HighsLp``: rowwise CSR, ``row_lower ==
        row_upper`` for the equalities, minimization sense.  The
        bindings copy plain lists into their vector fields faster than
        NumPy arrays; ``col_cost_`` alone is an array field."""
        import numpy as np

        n, m = self.num_variables, self.num_equalities
        lp = h.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = m
        lp.a_matrix_.format_ = h.MatrixFormat.kRowwise
        lp.a_matrix_.num_col_ = n
        lp.a_matrix_.num_row_ = m
        lp.a_matrix_.start_ = self.starts
        lp.a_matrix_.index_ = self.index
        lp.a_matrix_.value_ = self.value
        cost = np.array(self.cost, dtype=np.float64)
        lp.col_cost_ = -cost if self.maximize else cost
        inf = h.kHighsInf
        lp.col_lower_ = [0.0 if nonneg else -inf for nonneg in self.nonneg]
        lp.col_upper_ = [inf] * n
        lp.row_lower_ = self.rhs
        lp.row_upper_ = self.rhs
        return lp

    def solve(self) -> LPSolution:
        """Solve with HiGHS (see the module docstring for how each
        HiGHS exit maps to a result or a typed error)."""
        n = self.num_variables
        if n == 0:
            raise SynthesisError("linear program has no unknowns")

        _SOLVE_COUNT[0] += 1
        h = _highs()
        lp = self._highs_lp(h)
        size = f"{self.num_equalities} rows x {n} columns"
        unresolved = []
        for presolve in (None, "off"):
            solver = _cached_solver(h, presolve)
            if solver.passModel(lp) == h.HighsStatus.kError:
                largest = max(map(abs, self.value), default=0.0)
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
        values = {name: float(x[col]) for col, name in enumerate(self.names)}
        objective = float(fun) * (-1.0 if self.maximize else 1.0) + self.offset
        return LPSolution(
            values=values,
            objective=objective,
            num_variables=n,
            num_equalities=self.num_equalities,
        )
