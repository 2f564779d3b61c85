"""FIFO message channels for inter-process communication inside the DES.

:class:`Channel` is the simulation analogue of a hardware mailbox / control
message queue: producers ``put`` items, consumers ``get`` them, both
returning events the caller yields on.  An optional ``capacity`` turns the
channel into a bounded buffer whose ``put`` blocks when full — used to model
finite packet buffers.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine


class Channel:
    """Unbounded (or bounded) FIFO channel of Python objects."""

    def __init__(self, engine: "Engine", capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        # Labels for repr/Deadlock, formatted per channel, never per event.
        self._get_name = f"{name}:get"
        self._put_name = f"{name}:put"
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def getters_waiting(self) -> int:
        """Number of consumers currently blocked in ``get``."""
        return len(self._getters)

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; yields immediately unless the channel is full.
        The confirmation is a heap event: fire-and-forget callers use
        :meth:`try_put`."""
        ev = Event(self.engine, self._put_name)
        if self.capacity is not None and len(self._items) >= self.capacity:
            self._putters.append((ev, item))
            return ev
        self._deliver(item)
        ev.succeed()
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the channel is full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._deliver(item)
        return True

    def get(self) -> Event:
        """Dequeue an item; the returned event's value is the item."""
        ev = Event(self.engine, self._get_name)
        if self._items:
            ev.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def peek_all(self) -> tuple[Any, ...]:
        """Snapshot of queued items (diagnostics only; does not dequeue)."""
        return tuple(self._items)

    # -- internals ------------------------------------------------------------

    def _deliver(self, item: Any) -> None:
        """Hand ``item`` to a waiting getter, or queue it."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def _admit_putter(self) -> None:
        """After a dequeue, unblock the oldest blocked producer, if any."""
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            ev, item = self._putters.popleft()
            self._deliver(item)
            ev.succeed()


class Broadcast:
    """One-shot broadcast signal: many waiters, one ``fire``.

    Used for simulation-wide conditions such as "window epoch opened".
    After ``fire`` every past *and future* ``wait`` succeeds immediately
    until ``reset`` re-arms the signal.
    """

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._wait_name = f"{name}:wait"
        self._fired = False
        self._value: Any = None
        self._waiters: list[Event] = []

    @property
    def fired(self) -> bool:
        return self._fired

    def wait(self) -> Event:
        ev = Event(self.engine, self._wait_name)
        if self._fired:
            ev.succeed(self._value)
        else:
            self._waiters.append(ev)
        return ev

    def fire(self, value: Any = None) -> None:
        if self._fired:
            raise RuntimeError(f"broadcast {self.name!r} already fired")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)

    def reset(self) -> None:
        """Re-arm the signal for another fire (waiters since fire stay woken)."""
        self._fired = False
        self._value = None


def callback_channel(channel: Channel, handler: Callable[[Any], Any]):
    """Generator body draining ``channel`` forever, calling ``handler`` per item.

    ``handler`` may return a generator, in which case it is driven inline
    (i.e. the drain loop yields from it) — this models a handler that itself
    performs timed work, like an interrupt service routine doing a transfer.
    """
    while True:
        item = yield channel.get()
        result = handler(item)
        if result is not None and hasattr(result, "send"):
            yield from result
