"""The unified SCI transport layer: one chunked data path for everything.

The paper's core claim is that *one* mechanism — direct CPU stores into
mapped remote memory, streamed through bounded packet buffers — serves
non-contiguous point-to-point sends, one-sided communication and (through
them) the collectives.  This package is that mechanism's home:

* :class:`~repro.mpi.transport.policy.TransferPolicy` — every data-path
  decision (short/eager/rendezvous thresholds, generic vs. direct_pack_ff
  vs. DMA, direct vs. remote-put vs. emulated one-sided access, tree vs.
  chain collectives) in one pluggable object, with one ``force`` hook;
* :class:`~repro.mpi.transport.scheduler.TransferScheduler` — streams a
  :class:`~repro.mpi.flatten.plan.PackPlan`'s coalesced runs through the
  bounded SCI buffers with credit-based flow control and per-chunk cost
  accounting;
* :class:`~repro.mpi.transport.store.RemoteStore` — the single primitive
  that moves payload bytes off-rank, wrapping direct-store vs. emulated
  (control message + interrupt handler) delivery;
* :func:`~repro.mpi.transport.layout.resolve_target` — the one place
  that resolves a one-sided target layout (size, bounds, strided run and
  packing plan) for local and remote targets alike.

``mpi/pt2pt``, ``mpi/osc`` and ``mpi/coll`` contain protocol logic only;
every payload byte they move goes through this package.
"""

from .fastpath import CostTable, StreamWindow, fastpath_disabled
from .layout import resolve_target
from .policy import (
    DEFAULT_POLICY,
    ChunkedCollectivesPolicy,
    OSCStrategy,
    PaperThresholdPolicy,
    Protocol,
    TransferMode,
    TransferPolicy,
)
from .scheduler import ChunkCredit, ChunkReady, RndvAck, TransferScheduler
from .store import RemoteStore

__all__ = [
    "ChunkCredit",
    "ChunkReady",
    "ChunkedCollectivesPolicy",
    "CostTable",
    "DEFAULT_POLICY",
    "OSCStrategy",
    "PaperThresholdPolicy",
    "Protocol",
    "RemoteStore",
    "RndvAck",
    "StreamWindow",
    "TransferMode",
    "TransferPolicy",
    "TransferScheduler",
    "fastpath_disabled",
    "resolve_target",
]
