"""Cooperative wall-clock deadlines for long-running analysis tasks.

The batch engine's original per-task budget relied exclusively on
``SIGALRM``, which only fires on the main thread of a process.  That is
fine for CLI runs and pool workers (each worker *is* a main thread),
but the ``repro serve`` HTTP service executes tasks on
``ThreadingHTTPServer`` handler threads, where an armed budget was
silently unenforced.

This module is the thread-safe fallback: :func:`deadline_scope` records
a monotonic-clock deadline in thread-local state and the synthesis /
simulation hot loops call :func:`check_deadline` at natural
checkpoints (per Handelman constraint site, per LP solve, per
simulated run).  Exceeding the budget raises :class:`DeadlineExceeded`,
which the engine reports as ``status="timeout"`` exactly like a signal
delivery would.

Granularity is *cooperative*: a certificate extraction runs to
completion before the deadline is noticed, so the observed overshoot
is bounded by the longest uninterruptible step, not by the task.  An
LP solve is bounded as well: :mod:`repro.core.lp` hands HiGHS the
:func:`remaining` budget as its time limit.  Scopes nest — an inner
scope can only tighten the deadline, never extend an outer one.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["DeadlineExceeded", "active_deadline", "check_deadline", "deadline_scope"]


class DeadlineExceeded(Exception):
    """Raised by :func:`check_deadline` once the scope's budget expires.

    Deliberately *not* a :class:`repro.errors.ReproError`: the engine's
    structured-error handler must never swallow it as a plain analysis
    failure — it is caught explicitly and mapped to
    ``status="timeout"``.
    """


_STATE = threading.local()


def active_deadline() -> Optional[float]:
    """The current thread's deadline on the monotonic clock (or None)."""
    return getattr(_STATE, "deadline", None)


def remaining() -> Optional[float]:
    """Seconds left in the current scope (negative once expired)."""
    deadline = active_deadline()
    if deadline is None:
        return None
    return deadline - time.monotonic()


def check_deadline() -> None:
    """Raise :class:`DeadlineExceeded` if the thread's budget expired.

    Cheap enough for per-iteration use in the synthesis loops: one
    thread-local read plus one monotonic clock read when armed.
    """
    deadline = getattr(_STATE, "deadline", None)
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded(f"cooperative deadline exceeded by {time.monotonic() - deadline:.3f}s")


@contextmanager
def deadline_scope(seconds: Optional[float]) -> Iterator[None]:
    """Arm a cooperative deadline ``seconds`` from now for this thread.

    ``None`` (or a non-positive value) arms nothing and simply runs the
    body.  Nested scopes keep the *tighter* deadline; the previous one
    is restored on exit regardless of how the body terminates.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    previous = getattr(_STATE, "deadline", None)
    mine = time.monotonic() + seconds
    _STATE.deadline = mine if previous is None else min(previous, mine)
    try:
        yield
    finally:
        _STATE.deadline = previous
