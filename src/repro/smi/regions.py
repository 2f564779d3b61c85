"""SMI shared regions: one abstraction over SCI and intra-node memory.

The paper's SCI-MPICH builds on the SMI library ("Shared Memory Interface",
[26]), whose key property is that a *shared region* looks the same whether
its exporter lives on the same node (plain shared memory) or across the SCI
ring (an imported SCI segment).  That abstraction is why "all of the work
presented for the SCI interconnect can equally be applied to intra-node
shared memory communication" (Sec. 6).

:class:`SMIContext` owns the mapping of *ranks* (MPI processes) to *nodes*
(simulated machines) and hands out :class:`SharedRegion` objects.  A rank
accesses a region through its cached
:class:`~repro.hardware.sci.segments.ImportedSegment` (``handle(rank)``),
which routes every write, read and store barrier either through the SCI
fabric or, on the owner's node, through the local memory bus.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..hardware.node import Node
from ..hardware.sci.fabric import SCIFabric
from ..hardware.sci.segments import ImportedSegment, SegmentDirectory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim import Engine

__all__ = ["SMIContext", "SharedRegion", "SMIError"]


class SMIError(RuntimeError):
    """SMI-level usage error (bad rank, bad region, bounds)."""


class SMIContext:
    """Cluster-wide SMI instance: ranks, nodes, fabric, segment manager."""

    def __init__(
        self,
        engine: "Engine",
        fabric: SCIFabric,
        nodes: Sequence[Node],
        rank_to_node: Sequence[int],
    ):
        self.engine = engine
        self.fabric = fabric
        self.nodes = list(nodes)
        self.rank_to_node = list(rank_to_node)
        for node_id in self.rank_to_node:
            if not 0 <= node_id < len(self.nodes):
                raise SMIError(f"rank mapped to unknown node {node_id}")
        self.directory = SegmentDirectory(fabric)
        self._regions: list[SharedRegion] = []

    @property
    def n_ranks(self) -> int:
        return len(self.rank_to_node)

    def node_of(self, rank: int) -> Node:
        if not 0 <= rank < self.n_ranks:
            raise SMIError(f"unknown rank {rank}")
        return self.nodes[self.rank_to_node[rank]]

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.rank_to_node[rank_a] == self.rank_to_node[rank_b]

    def create_region(self, owner_rank: int, nbytes: int, label: str = "") -> "SharedRegion":
        """Allocate + export a shared region owned by ``owner_rank``.

        This is the simulation analogue of allocating memory through the
        SCI driver (what ``MPI_Alloc_mem`` does in SCI-MPICH).
        """
        node = self.node_of(owner_rank)
        buf = node.space.alloc(nbytes, alignment=64, label=label or f"smi-r{owner_rank}")
        segment = self.directory.export(node, buf)
        region = SharedRegion(self, owner_rank, segment, label)
        self._regions.append(region)
        return region


class SharedRegion:
    """A remotely accessible memory region owned by one rank."""

    def __init__(self, context: SMIContext, owner_rank: int, segment, label: str = ""):
        self.context = context
        self.owner_rank = owner_rank
        self.segment = segment
        self.label = label
        self._handles: dict[int, ImportedSegment] = {}

    @property
    def nbytes(self) -> int:
        return self.segment.nbytes

    def local_view(self) -> np.ndarray:
        """Direct (owner-side) numpy view — zero-cost, for the owner only."""
        return self.segment.local_view()

    def handle(self, rank: int) -> ImportedSegment:
        """This rank's mapping of the region (imported once, cached)."""
        if rank not in self._handles:
            self._handles[rank] = self.context.directory.import_segment(
                self.context.node_of(rank), self.segment)
        return self._handles[rank]

    def remap(self, rank: int) -> ImportedSegment:
        """Re-import the region for ``rank`` after a segment revocation.

        Drops the cached (stale) mapping and imports the segment afresh,
        picking up the current revocation epoch — the recovery action for
        :class:`~repro.hardware.sci.segments.SegmentUnmappedError`.
        """
        self._handles.pop(rank, None)
        return self.handle(rank)

    def __repr__(self) -> str:
        return (
            f"<SharedRegion {self.label!r} owner=rank{self.owner_rank} "
            f"{self.nbytes} B>"
        )
