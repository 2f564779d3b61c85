"""Fast-path machinery of the transport layer: cost tables + stream windows.

The simulated cost of a packet-buffer chunk is a pure function of its
geometry — (transfer mode, destination alignment, block groups, source
cache state) — yet a steady-state rendezvous stream recomputes it for
every handshake cycle.  This module provides the two fast paths that
exploit that (see ``docs/ENGINE.md``):

* :class:`~repro.hardware.sci.transactions.CostTable` — a bounded LRU
  (mirroring :class:`~repro.mpi.flatten.plan.PlanCache`) memoizing
  per-chunk transaction costs, one per rank.  Pure memoization: the
  cached value is the exact float the cost function returns, so
  simulated time is unchanged by construction.
* :class:`StreamWindow` / :class:`RecvWindowCosts` — the message types of
  the *closed-form window*: when a rendezvous chunk stream is in steady
  state on an otherwise idle engine, the sender replays the whole
  handshake-cycle clock sequence analytically (one arithmetic pass, one
  ``wake_at``) instead of event-stepping ~8 engine events per chunk.
  The receiver advertises its side of the per-cycle cost structure in
  the rendezvous ack (:attr:`RndvAck.window <.scheduler.RndvAck>`).

Both paths are policy-gated (:class:`FastPathPolicy` on
:class:`~repro.mpi.transport.policy.TransferPolicy`) and process-gated
(:func:`set_fastpath_enabled` / :func:`fastpath_disabled`), following the
plan-cache toggle idiom, so every differential oracle can force either
engine.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...hardware.sci.transactions import CostTable

__all__ = [
    "CostTable",
    "DEFAULT_FASTPATH",
    "FastPathPolicy",
    "RecvWindowCosts",
    "StreamWindow",
    "fastpath_disabled",
    "fastpath_enabled",
    "set_fastpath_enabled",
]


@dataclass(frozen=True)
class FastPathPolicy:
    """Knobs of the fast-path engine (see ``docs/ENGINE.md``).

    ``cost_tables`` gates the per-chunk cost memoization;
    ``closed_form`` gates the analytic stream-window replay.  Both
    default on — the event-stepped path remains the semantic reference
    and the differential oracle (``tests/test_fastpath_oracle.py``)
    pins the two engines to bit-identical simulated time.
    ``min_window`` is the smallest number of steady-state chunks worth
    collapsing into one window (below it the replay bookkeeping beats
    the event loop by too little to matter).
    """

    cost_tables: bool = True
    closed_form: bool = True
    min_window: int = 4
    table_size: int = 512


DEFAULT_FASTPATH = FastPathPolicy()


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
    """``count`` steady-state rendezvous chunks collapsed into one message.

    The sender has already advanced the engine clock through every
    handshake cycle of the window (analytically, bit-identical to the
    event-stepped path) and carries the packed payload of all chunks;
    the receiver unpacks in one pass and returns **no** credits — the
    window protocol replaces them (see ``docs/ENGINE.md``).
    ``end_time`` is the simulated instant the last cycle completes
    (receiver-side sanity checks only).
    """

    start_index: int
    pos: int            # stream position (message-relative) of the first chunk
    count: int          # number of chunks in the window
    nbytes: int         # payload bytes per chunk (all full-size)
    payload: np.ndarray  # the packed bytes of all ``count`` chunks
    end_time: float


# -- process-wide toggle (the plan-cache idiom) ------------------------------------

_enabled = True


def fastpath_enabled() -> bool:
    """Is the process-wide fast-path switch on?"""
    return _enabled


def set_fastpath_enabled(enabled: bool) -> bool:
    """Toggle every fast path process-wide; returns the previous setting.

    Off means the event-stepped reference engine runs everywhere —
    the lever the differential oracle and the ``perf-smoke`` CI lane
    pull to compare the two engines.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


@contextmanager
def fastpath_disabled():
    """Context manager: run on the event-stepped reference engine."""
    previous = set_fastpath_enabled(False)
    try:
        yield
    finally:
        set_fastpath_enabled(previous)
