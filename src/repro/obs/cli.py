"""``repro-trace`` — run a scenario, export ``trace.json`` + ``metrics.json``.

One command turns any bench/oracle scenario into the two machine-readable
observability artifacts::

    repro-trace                                # noncontig pingpong, 2 nodes
    repro-trace --scenario osc --nodes 2
    repro-trace --scenario collectives --nodes 4 --size 262144
    repro-trace --faults-seed 1                # with injected faults
    repro-trace --mode generic --trace /tmp/t.json --metrics /tmp/m.json

``trace.json`` is Chrome/Perfetto ``trace_event`` JSON (open in
``chrome://tracing`` or https://ui.perfetto.dev): one track per rank, one
per fabric ringlet, args carrying bytes/chunk/protocol/fault metadata.
``metrics.json`` is the flat metrics-registry snapshot (every key is
listed in ``docs/OBSERVABILITY.md``).  A compact text timeline and
the artifact paths are printed to stderr/stdout for terminal use.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .._units import KiB
from ..cluster import Cluster
from ..hardware.sci.faults import FaultPlan
from ..hardware.sci.topology import TOPOLOGY_NAMES, topology_from_name
from ..mpi.datatypes import BYTE, Vector
from ..mpi.pt2pt.config import DEFAULT_PROTOCOL
from .timeline import text_timeline, write_chrome_trace
from .trace import attach_tracer

__all__ = ["SCENARIOS", "main", "run_scenario"]


def _scenario_noncontig(size: int):
    """Non-contiguous pingpong: a strided Vector there and back."""
    blocks = max(1, size // 64)
    dtype = Vector(blocks, 64, 96, BYTE)
    extent = blocks * 96

    def program(ctx):
        comm = ctx.comm
        dtype.commit()
        buf = ctx.alloc(extent)
        if comm.rank == 0:
            buf.read()[:] = np.arange(extent, dtype=np.uint8) % 251
            yield from comm.send(buf, dest=1, datatype=dtype, count=1)
            yield from comm.recv(buf, source=1, datatype=dtype, count=1)
        elif comm.rank == 1:
            yield from comm.recv(buf, source=0, datatype=dtype, count=1)
            yield from comm.send(buf, dest=0, datatype=dtype, count=1)
        return ctx.now

    return program, 2


def _scenario_pingpong(size: int):
    """Contiguous pingpong of ``size`` bytes."""

    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(size)
        if comm.rank == 0:
            yield from comm.send(buf, dest=1)
            yield from comm.recv(buf, source=1)
        elif comm.rank == 1:
            yield from comm.recv(buf, source=0)
            yield from comm.send(buf, dest=0)
        return ctx.now

    return program, 2


def _scenario_osc(size: int):
    """One-sided epoch: direct put, large get (remote-put), accumulate."""

    def program(ctx):
        comm = ctx.comm
        win = yield from comm.win_create(size, shared=True)
        yield from win.fence()
        if comm.rank == 0:
            data = np.arange(size // 2, dtype=np.uint8) % 239
            yield from win.put(data, target=1, target_disp=0)
            yield from win.accumulate(
                np.ones(max(1, size // 256), dtype=np.float64), target=1,
                target_disp=size // 2,
            )
        yield from win.fence()
        if comm.rank == 1:
            yield from win.get(size // 2, target=0, target_disp=0)
        yield from win.fence()
        return ctx.now

    return program, 2


def _scenario_collectives(size: int):
    """Broadcast + allgather across the whole cluster."""

    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(size)
        if comm.rank == 0:
            buf.read()[:] = np.arange(size, dtype=np.uint8) % 233
        yield from comm.bcast(buf, root=0)
        piece = max(64, size // 16)
        send = ctx.alloc(piece)
        send.read()[:] = (np.arange(piece, dtype=np.uint8) + comm.rank) % 227
        gathered = ctx.alloc(piece * comm.size)
        yield from comm.allgather(send, gathered)
        return ctx.now

    return program, 4


SCENARIOS = {
    "noncontig": _scenario_noncontig,
    "pingpong": _scenario_pingpong,
    "osc": _scenario_osc,
    "collectives": _scenario_collectives,
}


def run_scenario(scenario: str, size: int = 256 * KiB, nodes: int = 0,
                 mode: str = "", faults_seed: int | None = None,
                 topology: str = ""):
    """Run one scenario traced; returns ``(cluster, tracer, registry)``."""
    program, default_nodes = SCENARIOS[scenario](size)
    config = DEFAULT_PROTOCOL.with_mode(mode) if mode else DEFAULT_PROTOCOL
    faults = None
    if faults_seed is not None:
        faults = FaultPlan(seed=faults_seed, transient_rate=0.2,
                           torn_rate=0.2, stall_rate=0.1)
    n_nodes = nodes or default_nodes
    cluster = Cluster(n_nodes=n_nodes, protocol=config, faults=faults,
                      topology=(topology_from_name(topology, n_nodes)
                                if topology else None))
    tracer = attach_tracer(cluster)
    cluster.run(program)
    return cluster, tracer, cluster.metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Run a scenario and export trace.json + metrics.json.",
    )
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default="noncontig")
    parser.add_argument("--size", type=int, default=256 * KiB,
                        help="payload size in bytes (default: 256 KiB)")
    parser.add_argument("--nodes", type=int, default=0,
                        help="cluster size (default: the scenario's own)")
    parser.add_argument("--mode", choices=("generic", "direct", "auto", "dma"),
                        default="", help="non-contiguous transfer technique")
    parser.add_argument("--faults-seed", type=int, default=None,
                        help="install a seeded FaultPlan (recovery spans "
                             "and fault events appear in the timeline)")
    parser.add_argument("--topology", choices=TOPOLOGY_NAMES, default="",
                        help="fabric topology sized for the cluster "
                             "(default: single ring); per-ringlet and "
                             "per-switch tracks appear in the trace")
    parser.add_argument("--trace", metavar="PATH", default="trace.json",
                        help="Chrome trace_event output (default: trace.json)")
    parser.add_argument("--metrics", metavar="PATH", default="metrics.json",
                        help="metrics snapshot output (default: metrics.json)")
    parser.add_argument("--no-timeline", action="store_true",
                        help="skip the terminal text timeline")
    args = parser.parse_args(argv)

    cluster, tracer, registry = run_scenario(
        args.scenario, size=args.size, nodes=args.nodes, mode=args.mode,
        faults_seed=args.faults_seed, topology=args.topology,
    )

    other_data = {
        "scenario": args.scenario,
        "size": args.size,
        "nodes": cluster.n_ranks,
        "mode": args.mode or cluster.world.config.noncontig_mode,
        "topology": cluster.fabric.topology.describe(),
    }
    plan = cluster.fabric.fault_plan
    if plan is not None:
        other_data["fault_plan"] = plan.as_dict()
    write_chrome_trace(tracer, args.trace, other_data=other_data)
    with open(args.metrics, "w") as fh:
        fh.write(registry.to_json() + "\n")

    if not args.no_timeline:
        print(text_timeline(tracer), file=sys.stderr)
    print(f"trace:   {args.trace} ({len(tracer.events)} events)")
    print(f"metrics: {args.metrics} ({len(registry.names())} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
