"""A simulated cluster node: one address space + its hardware models."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._units import MiB
from ..memlib import AddressSpace
from .memory import MemorySystem
from .params import DEFAULT_NODE, NodeParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim import Engine

__all__ = ["Node"]

#: Headroom of the node memory bus over a single streaming copy: one copy
#: does not saturate the bus, several do — this is what makes SMPs "scale
#: very badly for coarse-grained accesses" (paper Sec. 5.3 / Fig. 12).
BUS_HEADROOM = 1.6


class Node:
    """One cluster node (the paper's Dual P-III/800 + D330 box).

    Holds the node's address space (where every process buffer, packet
    buffer and exported SCI segment lives), the node-local hardware cost
    models, and the shared memory bus that concurrent intra-node copies
    contend on.
    """

    def __init__(
        self,
        node_id: int,
        mem_size: int = 64 * MiB,
        params: NodeParams = DEFAULT_NODE,
    ):
        self.node_id = node_id
        self.params = params
        self.space = AddressSpace(mem_size, owner=f"node{node_id}")
        self.memory = MemorySystem(params.memory)
        self._bus = None

    def bus(self, engine: "Engine"):
        """The node's shared memory-bus (a one-segment flow network)."""
        if self._bus is None:
            from .sci.flows import FlowNetwork, fair_share

            self._bus = FlowNetwork(
                engine, {("bus", self.node_id): self.bus_capacity},
                echo_ratio=0.0, name=f"bus-node{self.node_id}",
                response=fair_share,
            )
        return self._bus

    @property
    def bus_capacity(self) -> float:
        """Memory-bus bandwidth (B/µs) that concurrent copies share."""
        return self.params.memory.main_copy_bw * BUS_HEADROOM

    def bus_transfer(self, engine: "Engine", nbytes: int, duration: float):
        """DES generator: a local copy of ``nbytes`` that would take
        ``duration`` µs alone, sharing the memory bus with concurrent
        copies on this node."""
        if nbytes <= 0 or duration <= 0:
            return
            yield  # pragma: no cover - generator marker
        from .sci.topology import Route

        route = Route((("bus", self.node_id),), ())
        yield self.bus(engine).transfer(route, float(nbytes), nbytes / duration)

    def __repr__(self) -> str:
        return f"<Node {self.node_id} mem={self.space.size // MiB} MiB>"
