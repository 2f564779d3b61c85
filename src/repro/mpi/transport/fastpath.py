"""Fast-path machinery of the transport layer: cost tables + stream windows.

The simulated cost of a packet-buffer chunk is a pure function of its
geometry — (transfer mode, destination alignment, block groups, source
cache state) — yet a steady-state rendezvous stream recomputes it for
every handshake cycle.  This module provides the two fast paths that
exploit that (see ``docs/ENGINE.md``):

* :class:`~repro.memlib.memo.CostTable` — the one bounded LRU (the plan
  cache is another instance) memoizing per-chunk transaction costs, one
  per rank.  Pure memoization: the cached value is the exact float the
  cost function returns, so simulated time is unchanged by construction.
* :class:`StreamWindow` / :class:`RecvWindowCosts` — the message types of
  the *closed-form window*: when a rendezvous chunk stream is in steady
  state on an otherwise idle engine, the sender replays the whole
  handshake-cycle clock sequence analytically (one arithmetic pass, one
  ``wake_at``) instead of event-stepping ~8 engine events per chunk.
  The receiver advertises its side of the per-cycle cost structure in
  the rendezvous ack (:attr:`RndvAck.window <.scheduler.RndvAck>`).

Both are always on.  The one selector is :func:`fastpath_disabled`, which
the differential oracle (``tests/test_fastpath_oracle.py``) uses to force
the event-stepped reference engine; no non-test code calls it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from ...memlib import CostTable

__all__ = [
    "CostTable",
    "MIN_WINDOW",
    "RecvWindowCosts",
    "StreamWindow",
    "fastpath_disabled",
]

#: Smallest number of steady-state chunks worth collapsing into one
#: window (below it the replay bookkeeping beats the event loop by too
#: little to matter).
MIN_WINDOW = 4
#: ``False`` only inside :func:`fastpath_disabled`: no stream window
#: engages and no cost is memoized.  Read directly by the scheduler.
enabled = True


@dataclass
class RecvWindowCosts:
    """The receiver's half of a stream window's per-cycle cost structure.

    Shipped inside the rendezvous ack.  ``chunk_cost(pos, n)`` returns
    the exact per-chunk drain cost (protocol copy or direct unpack) the
    receiver would charge for the chunk at stream position ``pos`` —
    the same pure function the event-stepped receive loop calls, so the
    sender can replay the receiver's clock contribution analytically.
    ``ctrl_cost`` is the receiver's credit-packet cost back to the
    sender.
    """

    chunk_cost: Callable[[int, int], float]
    ctrl_cost: float


@dataclass
class StreamWindow:
    """Steady-state rendezvous chunks collapsed into one message.

    The sender has already advanced the engine clock through every
    handshake cycle of the window (analytically, bit-identical to the
    event-stepped path) and landed the window's bytes through
    ``RndvAck.land``; the receiver advances its stream position and
    returns **no** credits — the window protocol replaces them (see
    ``docs/ENGINE.md``).
    """

    pos: int     # stream position (message-relative) of the first chunk
    nbytes: int  # bytes of all the window's chunks


@contextmanager
def fastpath_disabled():
    """Context manager: run on the event-stepped reference engine."""
    global enabled
    previous, enabled = enabled, False
    try:
        yield
    finally:
        enabled = previous
