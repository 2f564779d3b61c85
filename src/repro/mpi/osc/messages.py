"""Control messages of the one-sided (emulation) engine.

These model the "internal control messages in conjunction with a remote
interrupt ... to invoke a remote handler on a process to accept or deliver
data" (Sec. 4.2) — the path taken whenever direct SCI access to a window
is impossible (private memory) or undesirable (large reads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...sim import Event

__all__ = ["OSCPut", "OSCGet", "OSCAccumulate", "OSCNotice"]


@dataclass
class OSCPut:
    """Emulated put: deliver ``data`` into the target's window.

    ``apply``, when set, scatters the packed payload into a
    non-contiguous target layout (called with the window's local view).
    """

    win_id: int
    origin: int
    disp: int
    data: np.ndarray
    ack: "Event"
    apply: "object" = None


@dataclass
class OSCGet:
    """Emulated get / remote-put: target pushes window data to the origin.

    The target writes bytes ``[pos, pos + nbytes)`` of the packed stream
    anchored at ``disp`` into the origin's response region (a
    *remote-put*, fast on SCI because writes are fast) and then fires
    ``done``.  ``plan``, when set, is the packing plan of a non-contiguous
    target layout; without one the stream is the window bytes from
    ``disp`` on.
    """

    win_id: int
    origin: int
    disp: int
    pos: int
    nbytes: int
    response_offset: int
    done: "Event"
    plan: "object" = None


@dataclass
class OSCAccumulate:
    """Emulated accumulate: combine ``data`` into the target's window.

    ``plan``, when set, is the packing plan of a non-contiguous target
    layout: the handler gathers the previous contents along it, combines
    element-wise and scatters the result back; the fetched value is the
    previous contents in packed order.
    """

    win_id: int
    origin: int
    disp: int
    data: np.ndarray
    op: str
    np_dtype: np.dtype
    ack: "Event"
    plan: "object" = None


@dataclass
class OSCNotice:
    """Epoch notification for post/start/complete/wait synchronization."""

    win_id: int
    kind: str  # "post" | "complete"
    source: int
