"""Expected-runtime analysis as a special case of cost analysis.

The expected *termination time* of a program is the expected
accumulated cost of the same program in which every original step is
free and every loop iteration ticks 1.  This module instruments a
program with unit costs per executed statement (the classic expected
runtime transformer of Kaminski et al., realized through the paper's
cost machinery) and runs the standard PUCS/PLCS pipeline, giving
polynomial upper *and lower* bounds on expected runtimes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Union

from ..polynomials import Polynomial
from ..syntax.ast import If, NondetIf, ProbIf, Program, Seq, Skip, Stmt, Tick, While
from ..syntax.parser import parse_program
from .bounds import CostAnalysisResult, analyze

if TYPE_CHECKING:
    from ..api.options import AnalysisOptions

__all__ = ["instrument_runtime", "analyze_runtime"]


def _strip_ticks(stmt: Stmt) -> Stmt:
    """Remove existing tick statements (their costs are not runtime)."""
    if isinstance(stmt, Tick):
        return Skip()
    if isinstance(stmt, Seq):
        return Seq.of(*(_strip_ticks(s) for s in stmt.stmts))
    if isinstance(stmt, While):
        return While(stmt.cond, _strip_ticks(stmt.body))
    if isinstance(stmt, If):
        return If(stmt.cond, _strip_ticks(stmt.then_branch), _strip_ticks(stmt.else_branch))
    if isinstance(stmt, ProbIf):
        return ProbIf(stmt.prob, _strip_ticks(stmt.then_branch), _strip_ticks(stmt.else_branch))
    if isinstance(stmt, NondetIf):
        return NondetIf(_strip_ticks(stmt.then_branch), _strip_ticks(stmt.else_branch))
    return stmt


def _add_loop_ticks(stmt: Stmt) -> Stmt:
    """Tick 1 at the top of every loop body (runtime = iteration count)."""
    if isinstance(stmt, Seq):
        return Seq.of(*(_add_loop_ticks(s) for s in stmt.stmts))
    if isinstance(stmt, While):
        return While(stmt.cond, Seq.of(Tick(Polynomial.constant(1.0)), _add_loop_ticks(stmt.body)))
    if isinstance(stmt, If):
        return If(stmt.cond, _add_loop_ticks(stmt.then_branch), _add_loop_ticks(stmt.else_branch))
    if isinstance(stmt, ProbIf):
        return ProbIf(
            stmt.prob, _add_loop_ticks(stmt.then_branch), _add_loop_ticks(stmt.else_branch)
        )
    if isinstance(stmt, NondetIf):
        return NondetIf(_add_loop_ticks(stmt.then_branch), _add_loop_ticks(stmt.else_branch))
    return stmt


def instrument_runtime(program: Program) -> Program:
    """A copy of ``program`` whose cost is its loop-iteration count.

    Existing ``tick`` statements are removed, then every loop body is
    prefixed with ``tick(1)``.  Straight-line code contributes no cost
    (it terminates in bounded time regardless).
    """
    body = _add_loop_ticks(_strip_ticks(program.body))
    name = f"{program.name}-runtime" if program.name else None
    return Program(pvars=list(program.pvars), rvars=dict(program.rvars), body=body, name=name)


def analyze_runtime(
    program: Union[str, Program],
    options: Optional["AnalysisOptions"] = None,
    **overrides: Any,
) -> CostAnalysisResult:
    """Polynomial bounds on the expected number of loop iterations of
    ``program`` (source text or a parsed :class:`Program`).

    :func:`~repro.analysis.bounds.analyze` on the instrumented program,
    in its ``(program, options=None, **overrides)`` convention.  Note
    the instrumentation changes label numbering (each loop gains a tick
    label), so ``invariants`` — if supplied — must refer to the
    *instrumented* program's labels; with none supplied the automatic
    interval generator is used.
    """
    if isinstance(program, str):
        program = parse_program(program)
    return analyze(instrument_runtime(program), options, **overrides)
