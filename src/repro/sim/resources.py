"""Counted resources and mutual exclusion for the simulation kernel.

:class:`Resource` is a counting semaphore with priority-aware FIFO
queueing; :class:`Lock` is the single-slot special case used for
spinlock modelling.  Both hand out *request events* that fire once the
resource is granted, and require an explicit ``release``.

Waiters are ordered by ``(priority, arrival)``: a *lower* priority
number is granted first, and equal priorities are strictly FIFO.  Every
request defaults to priority 0, so code that never passes a priority
gets the exact grant order (and simulated timings) of the plain FIFO
semaphore — the QoS credit-priority lane
(:mod:`repro.mpi.transport.scheduler`) is the only caller that demotes
requests.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from .events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine


class Resource:
    """Counting semaphore with priority-then-FIFO grant order."""

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._request_name = f"{name}:request"
        self._in_use = 0
        self._waiters: list[tuple[int, int, Event]] = []
        self._arrivals = 0

    def request(self, priority: int = 0) -> Event:
        """Request a slot; the returned event fires when granted.

        ``priority`` orders the wait queue (lower wins; ties are FIFO by
        arrival).  A free slot is always granted immediately regardless
        of priority — priorities reorder *waiting*, they never preempt.
        """
        ev = Event(self.engine, self._request_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._arrivals += 1
            heapq.heappush(self._waiters, (priority, self._arrivals, ev))
        return ev

    def release(self) -> None:
        """Release a granted slot, waking the best-ranked waiter."""
        if self._in_use <= 0:
            raise RuntimeError(f"release of unheld resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter; _in_use is unchanged.
            heapq.heappop(self._waiters)[2].succeed()
        else:
            self._in_use -= 1

    def held(self, body):
        """Generator combinator: run ``body`` (a generator) holding the resource.

        Usage inside a process::

            result = yield from resource.held(work())
        """
        yield self.request()
        try:
            result = yield from body
        finally:
            self.release()
        return result


class Lock(Resource):
    """Mutual exclusion lock (capacity-1 resource)."""

    def __init__(self, engine: "Engine", name: str = ""):
        super().__init__(engine, capacity=1, name=name)

    @property
    def locked(self) -> bool:
        return self._in_use > 0
