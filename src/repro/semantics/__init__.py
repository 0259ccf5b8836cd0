"""Program semantics: distributions, control-flow graphs, interpreter.

The vectorized engine's names (``BatchProgram``, ``compile_cfg``,
``simulate_vectorized``) are served lazily through a module
``__getattr__`` (PEP 562): :mod:`.vectorized` needs NumPy, which
``import repro`` should not pay for until a simulation runs.
"""

from .cfg import (
    CFG,
    AssignLabel,
    BranchLabel,
    Label,
    NondetLabel,
    ProbLabel,
    TerminalLabel,
    TickLabel,
    build_cfg,
)
from .distributions import (
    BernoulliDistribution,
    BinomialDistribution,
    DiscreteDistribution,
    Distribution,
    PointDistribution,
    UniformDistribution,
    UniformIntDistribution,
)
from .interpreter import AUTO_MIN_RUNS, RunResult, SimulationStats, run, simulate
from .schedulers import (
    CallbackScheduler,
    ElseScheduler,
    FixedScheduler,
    RandomScheduler,
    Scheduler,
    ThenScheduler,
)

_VECTORIZED = frozenset({"BatchProgram", "compile_cfg", "simulate_vectorized"})


def __getattr__(name):
    if name in _VECTORIZED:
        from . import vectorized

        return getattr(vectorized, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AUTO_MIN_RUNS",
    "BatchProgram",
    "CFG",
    "AssignLabel",
    "BernoulliDistribution",
    "BinomialDistribution",
    "BranchLabel",
    "CallbackScheduler",
    "DiscreteDistribution",
    "Distribution",
    "ElseScheduler",
    "FixedScheduler",
    "Label",
    "NondetLabel",
    "PointDistribution",
    "ProbLabel",
    "RandomScheduler",
    "RunResult",
    "Scheduler",
    "SimulationStats",
    "TerminalLabel",
    "TickLabel",
    "ThenScheduler",
    "UniformDistribution",
    "UniformIntDistribution",
    "build_cfg",
    "compile_cfg",
    "run",
    "simulate",
    "simulate_vectorized",
]
