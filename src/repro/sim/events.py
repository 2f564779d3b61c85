"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence at a simulated point in time.
Processes (see :mod:`repro.sim.process`) suspend themselves by ``yield``-ing
events and are resumed by the engine when the event fires.

The design follows the classic SimPy structure but is trimmed to what the
SCI/MPI simulation needs: ``succeed``/``fail``, timeouts, and ``AllOf`` /
``AnyOf`` composition.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from .errors import EventAlreadyTriggered

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    Lifecycle::

        created --> triggered (scheduled on the engine queue)
                --> processed (callbacks have run; ``value`` is final)

    ``succeed(value)`` / ``fail(exc)`` move the event to *triggered*; the
    engine later pops it from the queue and runs the callbacks, at which
    point the event is *processed*.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_defused", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        #: Callbacks run when the event is processed; ``None`` afterwards.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self.name = name

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the engine has run this event's callbacks."""
        return self.callbacks is None and self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid only once triggered)."""
        if self._ok is None:
            raise AttributeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception carried by the event."""
        if self._value is _PENDING:
            raise AttributeError(f"{self!r} has no value yet")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine will not re-raise it."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, carrying ``value``."""
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        engine = self.engine
        heappush(engine._queue, (engine.now, next(engine._seq), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters observe ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        engine = self.engine
        heappush(engine._queue, (engine.now, next(engine._seq), self))
        return self

    def cancel(self) -> None:
        """Withdraw a scheduled event nobody waits on: the engine drops its
        entry without moving the clock, calling a hook or counting it, and
        the event reads as neither triggered nor processed."""
        if self.callbacks is not None:
            self.callbacks = None
            self._value = _PENDING

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` µs after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Born triggered — the hottest allocation: fill the slots, push, done.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.name = name
        self.delay = delay
        heappush(engine._queue, (engine.now + delay, next(engine._seq), self))


class Condition(Event):
    """Base for events that fire once a set of child events satisfies a rule.

    The condition's value is a dict mapping each *processed* child event to
    its value, so callers can see exactly which children had fired.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str = ""):
        super().__init__(engine, name=name)
        self._events = tuple(events)
        for ev in self._events:
            if ev.engine is not engine:
                raise ValueError("all events of a condition must share one engine")
        self._remaining = len(self._events)
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev.callbacks is None:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* children count: a Timeout is "triggered" from
        # creation (its value is known), but it has not happened yet.
        return {ev: ev._value for ev in self._events if ev.callbacks is None and ev._ok}

    def _on_child(self, child: Event) -> None:
        if self._value is not _PENDING:
            return
        if not child._ok:
            child._defused = True
            self.fail(child._value)
            return
        self._remaining -= 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Fires when *all* child events have fired (fails fast on any failure)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._remaining == 0


class AnyOf(Condition):
    """Fires when *any* child event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._remaining < len(self._events)
