"""Deterministic discrete-event simulation kernel (substrate S1).

Everything in the reproduction runs *in simulated time* on this kernel:
MPI ranks are :class:`Process` coroutines, hardware latencies are
:class:`Timeout` events, packet buffers are :class:`Channel` objects and
shared-memory locks are :class:`Lock` resources.

Minimal example::

    from repro.sim import Engine

    def pinger(eng, chan):
        yield eng.timeout(5.0)
        yield chan.put("ping")

    def ponger(eng, chan):
        msg = yield chan.get()
        return (eng.now, msg)

    eng = Engine()
    chan = Channel(eng)
    eng.process(pinger(eng, chan))
    result = eng.run_process(ponger(eng, chan))   # (5.0, "ping")
"""

from .channel import Broadcast, Channel
from .engine import Engine
from .errors import Deadlock, EventAlreadyTriggered, InvalidYield, SimError
from .events import AllOf, AnyOf, Condition, Event, Timeout
from .process import Process, ProcessGenerator
from .resources import Lock, Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Broadcast",
    "Channel",
    "Condition",
    "Deadlock",
    "Engine",
    "Event",
    "EventAlreadyTriggered",
    "InvalidYield",
    "Lock",
    "Process",
    "ProcessGenerator",
    "Resource",
    "SimError",
    "Timeout",
]
