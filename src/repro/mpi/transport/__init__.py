"""The unified SCI transport layer: one chunked data path for everything.

The paper's core claim is that *one* mechanism — direct CPU stores into
mapped remote memory, streamed through bounded packet buffers — serves
non-contiguous point-to-point sends, one-sided communication and (through
them) the collectives.  This package is that mechanism's home:

* :class:`~repro.mpi.transport.policy.TransferPolicy` — every data-path
  decision (short/eager/rendezvous thresholds, generic vs. direct_pack_ff
  vs. DMA, direct vs. remote-put vs. emulated one-sided access, chunked
  vs. monolithic collectives) in one pluggable object;
* :class:`~repro.mpi.transport.scheduler.TransferScheduler` — streams a
  :class:`~repro.mpi.flatten.plan.PackPlan`'s coalesced runs through the
  bounded SCI buffers with credit-based flow control and per-chunk cost
  accounting;
* :class:`~repro.mpi.transport.store.RemoteStore` — the single primitive
  that moves payload bytes off-rank, wrapping direct-store vs. emulated
  (control message + interrupt handler) delivery;
* :func:`~repro.mpi.transport.layout.resolve_target_run` — the one place
  that decides whether a one-sided target layout is streamable.

``mpi/pt2pt``, ``mpi/osc`` and ``mpi/coll`` contain protocol logic only;
every payload byte they move goes through this package.
"""

from .fastpath import CostTable, StreamWindow, fastpath_disabled
from .layout import resolve_target_run
from .policy import (
    DEFAULT_POLICY,
    DEFAULT_RECOVERY,
    ChunkedCollectivesPolicy,
    OSCStrategy,
    Protocol,
    RecoveryPolicy,
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
    "DEFAULT_RECOVERY",
    "OSCStrategy",
    "Protocol",
    "RecoveryPolicy",
    "RemoteStore",
    "RndvAck",
    "StreamWindow",
    "TransferMode",
    "TransferPolicy",
    "TransferScheduler",
    "fastpath_disabled",
    "resolve_target_run",
]
