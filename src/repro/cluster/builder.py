"""Cluster façade: assemble nodes + fabric + SMI + MPI and run programs.

This is the top of the stack — the piece a user touches first::

    from repro.cluster import Cluster

    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(1024)
        if comm.rank == 0:
            buf.fill(7)
            yield from comm.send(buf, dest=1)
        else:
            yield from comm.recv(buf, source=0)
        return ctx.now

    run = Cluster(n_nodes=2).run(program)
    print(run.results, run.elapsed)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .._units import MiB
from ..hardware.node import Node
from ..hardware.params import DEFAULT_NODE, NodeParams
from ..hardware.sci.fabric import SCIFabric
from ..hardware.sci.faults import FaultPlan
from ..hardware.sci.topology import RingTopology, Topology
from ..mpi.comm import Communicator
from ..mpi.pt2pt.config import DEFAULT_PROTOCOL, ProtocolConfig
from ..mpi.pt2pt.engine import MPIWorld
from ..mpi.transport.policy import TransferPolicy
from ..memlib import Buffer
from ..sim import Engine, Process
from ..smi import SMIContext

__all__ = ["Cluster", "RankContext", "ClusterRun"]


class RankContext:
    """Everything a rank's program needs: its communicator and memory."""

    def __init__(self, cluster: "Cluster", rank: int):
        self.cluster = cluster
        self.comm = Communicator(cluster.world, rank)
        self.rank = rank
        self.size = cluster.world.n_ranks
        self.node = cluster.smi.node_of(rank)
        self._alloc_counter = 0

    def alloc(self, nbytes: int, alignment: int = 8, label: str = "") -> Buffer:
        """Allocate private process memory on this rank's node."""
        self._alloc_counter += 1
        return self.node.space.alloc(
            nbytes,
            alignment=alignment,
            label=label or f"user-r{self.rank}-{self._alloc_counter}",
        )

    @property
    def now(self) -> float:
        """Current simulated time in µs."""
        return self.cluster.engine.now

    def wtime(self) -> float:
        """MPI_Wtime analogue, in simulated *seconds*."""
        return self.cluster.engine.now * 1e-6

    def flush_cache(self):
        """The benchmarks' cache flush (paper Fig. 8): a fixed cost stand-in."""
        yield self.cluster.engine.timeout(50.0)


@dataclass
class ClusterRun:
    """Outcome of one program run across all ranks."""

    results: list[Any]
    elapsed: float  # µs of simulated time


class Cluster:
    """A simulated SCI cluster ready to run MPI programs."""

    def __init__(
        self,
        n_nodes: int,
        procs_per_node: int = 1,
        node_params: NodeParams = DEFAULT_NODE,
        protocol: ProtocolConfig = DEFAULT_PROTOCOL,
        topology: Optional[Topology] = None,
        mem_per_node: int = 96 * MiB,
        echo_ratio: float = 0.1,
        policy: Optional["TransferPolicy"] = None,
        faults: Optional[FaultPlan] = None,
    ):
        if n_nodes < 1 or procs_per_node < 1:
            raise ValueError("need at least one node and one process per node")
        self.engine = Engine()
        self.node_params = node_params
        self.nodes = [Node(i, mem_size=mem_per_node, params=node_params) for i in range(n_nodes)]
        self.topology = topology or RingTopology(n_nodes)
        self.fabric = SCIFabric(
            self.engine, self.topology, node_params=node_params, echo_ratio=echo_ratio
        )
        if faults is not None:
            self.fabric.install_fault_plan(faults)
        # Block rank placement: ranks 0..p-1 on node 0, etc. (the common
        # cluster layout; Table 1's SMPs run several ranks per node).
        rank_to_node = [
            node for node in range(n_nodes) for _ in range(procs_per_node)
        ]
        self.smi = SMIContext(self.engine, self.fabric, self.nodes, rank_to_node)
        self.world = MPIWorld(self.smi, protocol, policy=policy)
        self.contexts = [RankContext(self, r) for r in range(self.world.n_ranks)]
        self._metrics = None

    @property
    def n_ranks(self) -> int:
        return self.world.n_ranks

    @property
    def metrics(self):
        """The cluster's :class:`~repro.obs.MetricsRegistry` (built lazily).

        Collects every subsystem's counters — pt2pt protocol counts,
        recovery state, transport chunk stats, fabric traffic, plan-cache
        hit rates, segment directory, fault injection, OSC strategy
        counts, policy knobs, and the engine clock — under one flat
        namespace.  See ``docs/OBSERVABILITY.md`` for the name registry.
        """
        if self._metrics is None:
            from ..obs.wiring import build_registry

            self._metrics = build_registry(self)
        return self._metrics

    def launch(self, program: Callable, *args: Any) -> list[Process]:
        """Start ``program(ctx, *args)`` on every rank; returns processes."""
        procs = []
        for ctx in self.contexts:
            gen = program(ctx, *args)
            procs.append(self.engine.process(gen, name=f"rank{ctx.rank}"))
        return procs

    def run(self, program: Callable, *args: Any, until: Optional[float] = None) -> ClusterRun:
        """Run ``program`` on every rank to completion."""
        procs = self.launch(program, *args)
        start = self.engine.now
        self.engine.run(until=until)
        results = []
        for proc in procs:
            if not proc.triggered:
                raise RuntimeError(f"{proc.name} did not finish by the horizon")
            if not proc.ok:
                raise proc.value
            results.append(proc.value)
        return ClusterRun(results=results, elapsed=self.engine.now - start)

    def stats(self) -> str:
        """Aggregate performance-counter report (fabric + per-rank devices)."""
        lines = ["cluster stats"]
        fab = self.fabric.counters
        lines.append(
            "  fabric: "
            + "  ".join(f"{key}={fab[key]}" for key in sorted(fab))
        )
        for device in self.world.devices:
            counters = device.counters
            summary = "  ".join(f"{k}={v}" for k, v in sorted(counters.items()))
            lines.append(f"  rank {device.rank}: {summary}")
        return "\n".join(lines)

    def run_on_ranks(self, programs: dict[int, Callable]) -> ClusterRun:
        """Run different programs on specific ranks (others idle)."""
        procs = {}
        for rank, program in programs.items():
            procs[rank] = self.engine.process(
                program(self.contexts[rank]), name=f"rank{rank}"
            )
        start = self.engine.now
        self.engine.run()
        results = []
        for rank in sorted(procs):
            proc = procs[rank]
            if not proc.ok:
                raise proc.value
            results.append(proc.value)
        return ClusterRun(results=results, elapsed=self.engine.now - start)
