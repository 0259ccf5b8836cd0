"""Monte-Carlo operational semantics (Appendix C).

Runs execute the CFG one label at a time: assignments draw fresh values
for every sampling variable they mention, branching labels test their
guard, probabilistic labels flip a coin, nondeterministic labels consult
the scheduler, and tick labels accrue cost.  A run terminates when it
reaches ``l_out``.

:func:`simulate` aggregates many runs into the mean/std statistics that
Tables 4 and 5 of the paper report (1000 simulated executions each).
By default it dispatches large batches to the NumPy batch interpreter
(:mod:`repro.semantics.vectorized`), falling back to the pure-Python
reference loop here for programs or schedulers the compiler cannot
handle — see the ``engine`` parameter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..deadline import active_deadline, check_deadline
from ..errors import SemanticsError, VectorizationError
from .cfg import (
    CFG,
    AssignLabel,
    BranchLabel,
    NondetLabel,
    ProbLabel,
    TerminalLabel,
    TickLabel,
)
from .schedulers import Scheduler, ThenScheduler

__all__ = ["AUTO_MIN_RUNS", "RunResult", "SimulationStats", "run", "simulate"]

#: Batch size below which ``engine="auto"`` keeps the reference
#: interpreter: per-superstep NumPy dispatch overhead only amortizes
#: across enough concurrent runs.  Small seeded batches (e.g. the
#: golden tables' 8–30 run columns) therefore keep their exact
#: historical streams.
AUTO_MIN_RUNS = 64


@dataclass
class RunResult:
    """Outcome of a single run."""

    total_cost: float
    steps: int
    terminated: bool
    final_valuation: Dict[str, float]
    #: Present only when ``record_trajectory=True``:
    #: list of (label id, valuation snapshot, step cost).
    trajectory: Optional[List[Tuple[int, Dict[str, float], float]]] = None


@dataclass
class SimulationStats:
    """Aggregate cost statistics over many runs (cf. Tables 4-5).

    ``mean``/``std``/``min``/``max`` (and ``costs``) cover *terminated*
    runs only: a run cut off at ``max_steps`` has merely a partial
    accumulated cost, and folding it into the mean used to silently
    bias Monte-Carlo soundness checks low.  Truncated runs are counted
    in ``truncated`` and their partial costs reported separately
    (``truncated_mean``/``truncated_costs``); with no terminated runs
    at all the statistics are ``nan``.
    """

    runs: int
    mean: float
    std: float
    min: float
    max: float
    mean_steps: float
    termination_rate: float
    #: Runs cut off at ``max_steps`` before reaching ``l_out``; their
    #: partial costs are *excluded* from ``mean``/``std``/``costs``.
    truncated: int = 0
    #: Mean *partial* accumulated cost of the truncated runs (``None``
    #: when every run terminated) — a lower bound on what those runs
    #: would have cost, reported for diagnostics only.
    truncated_mean: Optional[float] = None
    #: Total costs of the terminated runs.
    costs: List[float] = field(repr=False, default_factory=list)
    #: Partial costs of the truncated runs.
    truncated_costs: List[float] = field(repr=False, default_factory=list)
    #: Which interpreter produced these statistics: ``"reference"`` (the
    #: pure-Python loop) or ``"vectorized"`` (the NumPy batch stepper).
    engine: str = "reference"

    @property
    def terminated_runs(self) -> int:
        return self.runs - self.truncated

    def stderr(self) -> float:
        """Standard error of the mean (over terminated runs)."""
        if self.terminated_runs <= 1:
            return float("inf")
        return self.std / math.sqrt(self.terminated_runs)

    def tail_frequency(self, threshold: float) -> float:
        """Share of *all* runs that terminated with ``cost >= threshold``
        (truncated runs count as not exceeding): it estimates
        ``P[cost >= threshold, T <= max_steps]``."""
        return sum(1 for cost in self.costs if cost >= threshold) / self.runs

    def confidence_interval(self, z: float = 2.576) -> Tuple[float, float]:
        """Normal-approximation CI for the mean (default 99%)."""
        half = z * self.stderr()
        return (self.mean - half, self.mean + half)


def _sample_valuation(cfg: CFG, expr_vars, rng: random.Random) -> Dict[str, float]:
    """Draw one value for every sampling variable in ``expr_vars``."""
    draws: Dict[str, float] = {}
    for var in expr_vars:
        dist = cfg.rvars.get(var)
        if dist is not None:
            draws[var] = dist.sample(rng)
    return draws


def run(
    cfg: CFG,
    init: Mapping[str, float],
    scheduler: Optional[Scheduler] = None,
    rng: Optional[random.Random] = None,
    max_steps: int = 1_000_000,
    record_trajectory: bool = False,
) -> RunResult:
    """Execute one run from the initial valuation ``init``.

    Runs that exceed ``max_steps`` are truncated and reported with
    ``terminated=False`` (their accumulated cost so far is returned).
    """
    scheduler = scheduler or ThenScheduler()
    scheduler.reset()
    rng = rng or random.Random()

    valuation: Dict[str, float] = {var: 0.0 for var in cfg.pvars}
    for var, value in init.items():
        if var not in valuation:
            raise SemanticsError(f"initial valuation mentions unknown variable {var!r}")
        valuation[var] = float(value)

    # Valuation snapshots are only materialized when something can read
    # them: a history-consuming scheduler AND a nondeterministic label
    # to consult it at.  Unconditional recording used to allocate one
    # dict per step — a million snapshots on a truncated 1M-step run.
    record_history = scheduler.needs_history and any(
        isinstance(label, NondetLabel) for label in cfg.labels.values()
    )
    history: List[Tuple[int, Dict[str, float]]] = []
    trajectory: Optional[List[Tuple[int, Dict[str, float], float]]] = [] if record_trajectory else None

    current = cfg.entry
    total_cost = 0.0
    steps = 0
    # Periodic cooperative-timeout checkpoint (threaded budgets): only
    # armed sessions pay the per-step flag test, and a single long run
    # cannot outlive its task's deadline by more than ~16k steps.
    deadline_armed = active_deadline() is not None

    while steps < max_steps:
        if deadline_armed and (steps & 16383) == 0:
            check_deadline()
        label = cfg.labels[current]
        if isinstance(label, TerminalLabel):
            if trajectory is not None:
                trajectory.append((label.id, dict(valuation), 0.0))
            return RunResult(total_cost, steps, True, valuation, trajectory)

        step_cost = 0.0
        if isinstance(label, AssignLabel):
            draws = _sample_valuation(cfg, label.expr.variables(), rng)
            scope = dict(valuation)
            scope.update(draws)
            value = label.expr.evaluate_numeric(scope)
            nxt = label.succ
        elif isinstance(label, BranchLabel):
            nxt = label.succ_true if label.cond.evaluate(valuation) else label.succ_false
        elif isinstance(label, ProbLabel):
            nxt = label.succ_then if rng.random() < label.prob else label.succ_else
        elif isinstance(label, NondetLabel):
            take_then = scheduler.choose(label, valuation, history)
            nxt = label.succ_then if take_then else label.succ_else
        elif isinstance(label, TickLabel):
            step_cost = label.cost.evaluate_numeric(valuation)
            total_cost += step_cost
            nxt = label.succ
        else:  # pragma: no cover - exhaustive over label kinds
            raise SemanticsError(f"unknown label kind {label.kind!r}")

        if trajectory is not None:
            trajectory.append((label.id, dict(valuation), step_cost))
        if record_history:
            history.append((label.id, dict(valuation)))
        if isinstance(label, AssignLabel):
            valuation[label.var] = value

        current = nxt
        steps += 1

    return RunResult(total_cost, steps, False, valuation, trajectory)


def build_stats(
    runs: int,
    costs: List[float],
    truncated_costs: List[float],
    total_steps: int,
    engine: str = "reference",
) -> SimulationStats:
    """Aggregate per-run outcomes into :class:`SimulationStats`.

    Shared by the reference and vectorized engines so both produce
    statistics through the exact same float arithmetic.
    """
    terminated = len(costs)
    if terminated:
        mean = sum(costs) / terminated
        var = sum((c - mean) ** 2 for c in costs) / (terminated - 1) if terminated > 1 else 0.0
        std, lo, hi = math.sqrt(var), min(costs), max(costs)
    else:
        mean = std = lo = hi = float("nan")
    return SimulationStats(
        runs=runs,
        mean=mean,
        std=std,
        min=lo,
        max=hi,
        mean_steps=total_steps / runs,
        termination_rate=terminated / runs,
        truncated=runs - terminated,
        truncated_mean=(sum(truncated_costs) / len(truncated_costs)) if truncated_costs else None,
        costs=costs,
        truncated_costs=truncated_costs,
        engine=engine,
    )


def simulate(
    cfg: CFG,
    init: Mapping[str, float],
    runs: int = 1000,
    scheduler: Optional[Scheduler] = None,
    seed: Optional[int] = None,
    max_steps: int = 1_000_000,
    engine: str = "auto",
) -> SimulationStats:
    """Run ``runs`` independent executions and aggregate cost statistics.

    ``engine`` selects the interpreter:

    * ``"auto"`` (default) — compile to the NumPy batch stepper of
      :mod:`repro.semantics.vectorized` when the batch is large enough
      (``runs >= AUTO_MIN_RUNS``) and the program/scheduler is
      vectorizable, otherwise fall back to the reference loop
      transparently;
    * ``"vectorized"`` — force the batch stepper (raises
      :class:`~repro.errors.VectorizationError` when unsupported);
    * ``"reference"`` — force the pure-Python loop.

    The two engines draw from different RNG streams (``random.Random``
    vs :class:`numpy.random.Generator`), so their seeded results are
    statistically equivalent but not bitwise equal; each engine on its
    own is bit-reproducible for a fixed seed.
    """
    from ..api.options import SIMULATE_ENGINES

    if runs <= 0:
        raise ValueError("number of runs must be positive")
    if seed is not None and seed < 0:
        # random.Random would take abs(seed), aliasing the streams of
        # seed and -seed; NumPy's generator rejects it outright.
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    if engine not in SIMULATE_ENGINES:
        raise ValueError(f"engine must be one of {SIMULATE_ENGINES}, got {engine!r}")
    if engine == "vectorized" or (engine == "auto" and runs >= AUTO_MIN_RUNS):
        from .vectorized import simulate_vectorized

        try:
            return simulate_vectorized(
                cfg, init, runs=runs, scheduler=scheduler, seed=seed, max_steps=max_steps
            )
        except VectorizationError:
            if engine == "vectorized":
                raise

    rng = random.Random(seed)
    costs: List[float] = []
    truncated_costs: List[float] = []
    total_steps = 0
    for _ in range(runs):
        check_deadline()  # cooperative per-run timeout checkpoint
        result = run(cfg, init, scheduler=scheduler, rng=rng, max_steps=max_steps)
        if result.terminated:
            costs.append(result.total_cost)
        else:
            truncated_costs.append(result.total_cost)
        total_steps += result.steps
    return build_stats(runs, costs, truncated_costs, total_steps, engine="reference")
