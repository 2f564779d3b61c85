"""Coroutine processes for the discrete-event simulation kernel.

A *process* wraps a Python generator.  Each ``yield``-ed :class:`Event`
suspends the generator until the event fires; the event's value becomes the
result of the ``yield`` expression (a failed event is re-raised inside the
generator, so processes can ``try/except`` simulated failures).

A :class:`Process` is itself an :class:`Event` that fires when the generator
returns, carrying the generator's return value — so processes can wait on
each other (``result = yield other_process``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .errors import InvalidYield
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine

#: Type alias for the generator signature a process body must have.
ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process driving a generator of events."""

    __slots__ = ("_generator", "_waiting_on", "daemon")

    def __init__(self, engine: "Engine", generator: ProcessGenerator, name: str = "",
                 daemon: bool = False):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function, or is the body "
                "missing a yield?"
            )
        super().__init__(engine, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Event | None = None
        #: Daemon processes (service loops) don't count as deadlocked work.
        self.daemon = daemon
        engine._register_process(self)
        # Kick the process off via an immediate initialisation event so that
        # the body only starts executing inside engine.run().
        init = self._waiting_on = Event(engine, "init")
        init.callbacks.append(self._resume)
        init.succeed()

    @property
    def waiting_on(self) -> Event | None:
        """The event this process is currently suspended on (for diagnostics)."""
        return self._waiting_on

    def stop(self) -> None:
        """End the process where it waits, started or not: its generator
        closes (``finally`` blocks run), and it never fires."""
        if self._waiting_on is not None and self._waiting_on.callbacks:
            self._waiting_on.callbacks.remove(self._resume)
        self._generator.close()
        self.engine._unregister_process(self)

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the trigger event's outcome."""
        self._waiting_on = None
        engine = self.engine
        engine.active_process = self
        try:
            if trigger._ok:
                target = self._generator.send(trigger._value)
            else:
                trigger._defused = True
                target = self._generator.throw(trigger._value)
        except StopIteration as stop:
            engine._unregister_process(self)
            self.succeed(stop.value)
            return
        except BaseException as exc:
            engine._unregister_process(self)
            self.fail(exc)
            return
        finally:
            engine.active_process = None

        if not isinstance(target, Event):
            err = InvalidYield(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances (did you forget 'yield from' on a "
                "sub-generator?)"
            )
            engine._unregister_process(self)
            self._generator.close()
            self.fail(err)
            return

        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is not None:
            callbacks.append(self._resume)
            return
        # The event already ran its callbacks; resume promptly via a
        # zero-delay bridge event to keep stepping uniform.
        bridge = Event(engine, "bridge")
        bridge.callbacks.append(self._resume)
        if target._ok:
            bridge.succeed(target._value)
        else:
            target._defused = True
            bridge.fail(target._value)
            bridge._defused = True
