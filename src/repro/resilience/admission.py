"""Service-side backpressure primitives: admission + single-flight.

Two small, lock-based building blocks the HTTP service composes in its
POST path (both are transport-agnostic and unit-testable without a
server):

:class:`AdmissionController`
    A bounded in-flight gate.  ``try_acquire`` never blocks: a
    saturated service answers *immediately* with 429 + ``Retry-After``
    instead of stacking handler threads until something else breaks.

:class:`SingleFlight`
    Request coalescing keyed by cache fingerprint.  When N identical
    POSTs race on a cold cache, exactly one (the *leader*) runs the
    solve; the other N-1 (*followers*) park on an event — consuming no
    admission slot and no worker — and re-read the cache once the
    leader publishes.  N racers, one LP solve, N identical responses,
    and exact counters: 1 miss + (N-1) hits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["AdmissionController", "Flight", "SingleFlight"]


class AdmissionController:
    """Bounded in-flight gate with a non-blocking acquire.

    ``limit`` is the maximum number of concurrently admitted requests;
    ``retry_after_s`` is the hint surfaced in the 429 ``Retry-After``
    header when the gate is full.
    """

    def __init__(self, limit: int, retry_after_s: float = 1.0):
        if limit < 1:
            raise ValueError(f"admission limit must be >= 1, got {limit}")
        if retry_after_s <= 0:
            raise ValueError(f"retry_after_s must be > 0, got {retry_after_s!r}")
        self.limit = limit
        self.retry_after_s = retry_after_s
        self._inflight = 0
        self._rejected = 0
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        """Claim a slot if one is free; never blocks."""
        with self._lock:
            if self._inflight >= self.limit:
                self._rejected += 1
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._inflight <= 0:  # pragma: no cover - defensive
                raise RuntimeError("release() without a matching try_acquire()")
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def rejected(self) -> int:
        """Total requests shed with 429 since startup."""
        with self._lock:
            return self._rejected


@dataclass
class Flight:
    """One coalescing group: a leader solving, followers parked."""

    key: str
    done: threading.Event = field(default_factory=threading.Event)
    #: Opaque payload the leader publishes for diagnostics; followers
    #: re-read the cache rather than trusting this blindly.
    outcome: Any = None
    followers: int = 0


class SingleFlight:
    """Coalesce concurrent identical work under a string key.

    Protocol::

        flight, leader = sf.join(key)
        if leader:
            try:
                outcome = ...          # the one real solve
            finally:
                sf.finish(flight, outcome)
        else:
            sf.wait(flight)            # park, slot-free
            # then re-check the cache: the leader's store is visible.

    ``finish`` is in a ``finally`` for a reason: a leader that errors
    must still release its followers (they will miss the cache and
    take the normal path themselves) — otherwise they park forever.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[str, Flight] = {}
        self._coalesced = 0

    def join(self, key: str):
        """Enter the group for ``key``; returns ``(flight, is_leader)``."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = Flight(key=key)
                self._flights[key] = flight
                return flight, True
            flight.followers += 1
            self._coalesced += 1
            return flight, False

    def finish(self, flight: Flight, outcome: Any = None) -> None:
        """Leader-only: publish and release every follower."""
        with self._lock:
            flight.outcome = outcome
            self._flights.pop(flight.key, None)
        flight.done.set()

    def wait(self, flight: Flight, timeout: Optional[float] = None) -> bool:
        """Follower-only: park until the leader finishes."""
        return flight.done.wait(timeout=timeout)

    @property
    def coalesced(self) -> int:
        """Total follower requests coalesced since startup."""
        with self._lock:
            return self._coalesced
