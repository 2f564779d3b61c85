"""The simulated SCI interconnect (S4).

Layers, bottom-up:

* :mod:`~repro.hardware.sci.transactions` — how CPU stores become PCI and
  SCI transactions (write-combining, stream buffers, natural alignment)
  and what PIO/DMA access runs cost.
* :mod:`~repro.hardware.sci.topology` — the :class:`Topology` protocol
  (routing, link identity, capacity, locality) and its implementations:
  ring, torus, switched ring-of-rings, fat tree.
* :mod:`~repro.hardware.sci.flows` — fluid bandwidth sharing with the
  congestion-response curve calibrated from the paper's Table 2.
* :mod:`~repro.hardware.sci.fabric` — the operation facade (pio_write,
  pio_read, dma_transfer, transfer_raw, store_barrier, post_interrupt)
  used by SMI/MPI; the four data operations price a transfer and hand it
  to one wire body (shaping, faults, propagation, shared flow, counters).
* :mod:`~repro.hardware.sci.segments` — exported/imported shared segments
  that move the actual bytes; an :class:`ImportedSegment` is the one
  access object SMI hands a rank for a region, remote or on its node.
"""

from .fabric import SCIConnectionError, SCIFabric
from .faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    SCITransientError,
    TornTransferError,
)
from .flows import Flow, FlowNetwork
from .segments import (
    ImportedSegment,
    SCISegment,
    SegmentDirectory,
    SegmentError,
    SegmentUnmappedError,
    gather_run,
    scatter_run,
)
from .topology import (
    TOPOLOGY_NAMES,
    FatTree,
    RingOfRings,
    RingTopology,
    Route,
    Topology,
    TorusTopology,
    topology_from_name,
)
from .transactions import (
    AccessRun,
    TxnSummary,
    WriteCost,
    dma_cost,
    remote_read_cost,
    remote_read_txns,
    remote_write_cost,
    summarize_block,
    summarize_run,
)

__all__ = [
    "AccessRun",
    "FatTree",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "Flow",
    "FlowNetwork",
    "ImportedSegment",
    "RingOfRings",
    "RingTopology",
    "Route",
    "SCIConnectionError",
    "SCIFabric",
    "SCISegment",
    "SCITransientError",
    "SegmentDirectory",
    "SegmentError",
    "SegmentUnmappedError",
    "TOPOLOGY_NAMES",
    "Topology",
    "TornTransferError",
    "TorusTopology",
    "TxnSummary",
    "WriteCost",
    "dma_cost",
    "gather_run",
    "remote_read_cost",
    "remote_read_txns",
    "remote_write_cost",
    "scatter_run",
    "summarize_block",
    "summarize_run",
    "topology_from_name",
]
