"""The discrete-event simulation engine.

The engine owns the clock (µs, ``float``) and a priority queue of triggered
events.  :meth:`Engine.run` pops events in time order, runs their callbacks
(which typically resume suspended processes), and stops when the queue is
empty or an optional horizon is reached.

The engine is deterministic: events scheduled for the same instant are
processed in trigger order (FIFO), so repeated runs of the same program
produce identical traces.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Optional

from .errors import Deadlock, SimError
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGenerator


class Engine:
    """Deterministic discrete-event simulation engine."""

    def __init__(self) -> None:
        #: Current simulated time in µs.
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = count()
        self._live_processes: set[Process] = set()
        self._active_process: Optional[Process] = None
        #: Count of events processed so far (diagnostics / perf counters).
        self.events_processed: int = 0
        #: Count of timeline steps a fast path computed analytically
        #: instead of through the event heap (the fast path adds to it).
        self.events_coalesced: int = 0
        self._time_hooks: list = []

    # -- factory helpers ------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create an untriggered event bound to this engine."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that fires ``delay`` µs from now."""
        return Timeout(self, delay, value, name)

    def process(self, generator: ProcessGenerator, name: str = "",
                daemon: bool = False) -> Process:
        """Start a new process running ``generator``.

        ``daemon=True`` marks service loops that are expected to remain
        blocked forever; they are exempt from deadlock detection.
        """
        return Process(self, generator, name=name, daemon=daemon)

    def wake_at(self, time: float, value: Any = None, name: str = "") -> Event:
        """Create an already-triggered event firing at absolute ``time``.

        Unlike ``timeout(time - now)`` this pins the event to ``time``
        exactly: with float microseconds, ``now + (time - now)`` is not
        generally equal to ``time``, and the fast paths (which compute
        absolute completion instants analytically) need the clock to land
        on the same float the event-stepped path would have produced.
        """
        if time < self.now:
            raise ValueError(f"wake_at({time}) is in the past (now={self.now})")
        event = Event(self, name=name)
        event._ok = True
        event._value = value
        heapq.heappush(self._queue, (time, next(self._seq), event))
        return event

    def all_of(self, events: list[Event], name: str = "") -> AllOf:
        """Event firing once every event in ``events`` has fired."""
        return AllOf(self, events, name=name)

    def any_of(self, events: list[Event], name: str = "") -> AnyOf:
        """Event firing once any event in ``events`` has fired."""
        return AnyOf(self, events, name=name)

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing (None between process steps)."""
        return self._active_process

    # -- observation hooks -----------------------------------------------------

    def add_time_hook(self, hook) -> None:
        """Call ``hook(now)`` whenever the simulated clock moves forward.

        Hooks observe only (they run between engine events, in host time)
        and must never schedule or mutate simulation state; they are the
        sampling attachment point used by :class:`repro.obs.hooks.TimeSampler`.
        """
        self._time_hooks.append(hook)

    def remove_time_hook(self, hook) -> None:
        """Detach ``hook`` (no-op if it is not attached)."""
        try:
            self._time_hooks.remove(hook)
        except ValueError:
            pass

    # -- process bookkeeping (internal API used by Process) -------------------

    def _register_process(self, process: Process) -> None:
        self._live_processes.add(process)

    def _unregister_process(self, process: Process) -> None:
        self._live_processes.discard(process)

    # -- execution -------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next event that will happen, or ``inf`` if none is
        scheduled.  Cancelled entries at the head of the heap are dropped
        here, as :meth:`_dispatch` would drop them."""
        queue = self._queue
        while queue and queue[0][2].callbacks is None:
            heapq.heappop(queue)
        return queue[0][0] if queue else float("inf")

    @property
    def pending_events(self) -> int:
        """Number of events scheduled to happen (cancelled ones are not)."""
        return sum(event.callbacks is not None for _, _, event in self._queue)

    @property
    def quiescent(self) -> bool:
        """Nothing but the running process can move or observe the clock.

        This is the engagement guard of the analytic fast paths: it holds
        when there are no time hooks and every queued event is cancelled
        or *inert* — already triggered, scheduled at exactly ``now``,
        with nobody waiting on it (a bounded
        :class:`~repro.sim.channel.Channel`'s ``put`` confirmation).
        Both pop without advancing time or running callbacks, so the
        window replay cannot be perturbed by (or perturb) them.
        """
        if self._time_hooks:
            return False
        for when, _, event in self._queue:
            if event.callbacks is None:
                continue  # cancelled: it never happens
            if when != self.now or event.callbacks or not event._ok:
                return False
        return True

    def _dispatch(self, until: Optional[float] = None,
                  single: bool = False) -> None:
        """Fire queued events in (time, trigger) order — the one dispatch
        body: until the queue drains, up to the first event at or past
        ``until``, or for one event when ``single``."""
        queue = self._queue
        hooks = self._time_hooks
        pop = heapq.heappop
        while queue:
            if until is not None and queue[0][0] >= until:
                return
            when, _, event = pop(queue)
            if event.callbacks is None:
                continue  # cancelled: it never happened
            if when > self.now:
                self.now = when
                if hooks:
                    for hook in list(hooks):
                        hook(when)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            self.events_processed += 1
            if not event._ok and not event._defused:
                # A failure nobody handled: surface it instead of silently
                # dropping it (mirrors SimPy semantics).
                raise event._value
            if single:
                return

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if self.peek() == float("inf"):
            raise SimError("step() on an empty event queue")
        self._dispatch(single=True)

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation.

        With ``until=None`` runs until the event queue drains; raises
        :class:`~repro.sim.errors.Deadlock` if live processes remain blocked
        at that point.  With a numeric ``until`` runs until simulated time
        reaches it (events at exactly ``until`` are *not* processed) and
        never raises Deadlock.  Returns the final simulated time.
        """
        if until is not None:
            if until < self.now:
                raise ValueError(f"until={until} is in the past (now={self.now})")
            self._dispatch(until)
            self.now = until
            return until
        self._dispatch()
        stuck = [p for p in self._live_processes if not p.daemon]
        if stuck:
            waiting = sorted(f"{p.name} (on {p.waiting_on!r})" for p in stuck)
            raise Deadlock(waiting)
        return self.now

    def run_process(self, generator: ProcessGenerator, name: str = "") -> Any:
        """Convenience: start ``generator`` as a process, run to completion,
        and return the process's return value."""
        proc = self.process(generator, name=name)
        self.run()
        if not proc.triggered:  # pragma: no cover - defensive
            raise SimError(f"process {proc.name!r} never completed")
        if not proc.ok:
            raise proc.value
        return proc.value
