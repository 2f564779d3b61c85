"""Hierarchical-collective scaling gauges on switched multi-ringlet fabrics.

The ROADMAP's scaling target is 64–512 nodes on switched topologies; this
module measures the piece bench smoke can afford every CI run: a 128 KiB
allreduce across 8-node ringlets joined by a crossbar
(:class:`~repro.hardware.sci.topology.RingOfRings`), with the hierarchical
algorithm (ringlet-local aggregation, leader exchange across the switch)
against the flat chain that
:class:`~repro.mpi.transport.policy.ChunkedCollectivesPolicy` forces.
Both hierarchical stages keep the binomial tree at this size, so the
gap between the gauges is tree against chain, not flat against
hierarchical: on block rank placement the flat binomial tree times
bit-identically to the hierarchical algorithm (45,995.9 µs each for
the ledger's 64-node ``collective_scale`` cell).
"""

from __future__ import annotations

from .._units import KiB
from ..cluster import Cluster
from ..hardware.sci.topology import RingOfRings
from ..mpi.datatypes import BYTE
from ..mpi.flatten import reset_plan_cache
from ..mpi.transport.policy import ChunkedCollectivesPolicy

__all__ = ["run_hier_allreduce"]

#: Payload of the scaling gauges: large enough that the chain baseline
#: chunk-pipelines and the crossbar stage matters, small enough for CI.
HIER_PAYLOAD = 128 * KiB

#: Every gauge uses 8-node ringlets (the paper outlook's ringlet size).
RINGLET_SIZE = 8


def run_hier_allreduce(n_nodes: int, hierarchical: bool = True,
                       payload: int = HIER_PAYLOAD) -> float:
    """Completion time (µs) of one ``payload``-byte allreduce.

    ``n_nodes`` ranks on a :class:`RingOfRings` of 8-node ringlets;
    ``hierarchical=False`` runs the flat stage, which the policy forces
    onto the chain, for the speedup comparison.
    """
    if n_nodes % RINGLET_SIZE:
        raise ValueError(f"{n_nodes} nodes do not fill {RINGLET_SIZE}-node ringlets")
    reset_plan_cache()
    topology = RingOfRings(n_nodes // RINGLET_SIZE, RINGLET_SIZE)
    policy = ChunkedCollectivesPolicy(hier_collectives=hierarchical)

    def program(ctx):
        comm = ctx.comm
        send = ctx.alloc(payload)
        recv = ctx.alloc(payload)
        send.read()[:] = comm.rank % 251
        t0 = ctx.now
        yield from comm.allreduce(send, recv, op="sum", datatype=BYTE)
        return ctx.now - t0

    run = Cluster(n_nodes=n_nodes, topology=topology, policy=policy).run(program)
    return max(run.results)
