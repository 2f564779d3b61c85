"""CI smoke benchmark: a deterministic handful of headline metrics.

The full figure suite takes minutes; CI wants seconds.  :func:`run_smoke`
measures one representative point per subsystem — pt2pt latency and
bandwidth, non-contiguous packing (generic vs. direct_pack_ff), sparse
one-sided puts and gets from private memory, and the fault-recovery
path — and returns a flat ``{metric: value}`` dict.  The simulation is a discrete-event model, so
every value is bit-reproducible; ``tools/bench_compare.py`` diffs a fresh
run against the committed ``benchmarks/BENCH_baseline.json`` and fails CI
on regressions beyond its tolerance.

Metric naming carries the comparison direction: ``*_us`` is
lower-is-better (simulated microseconds), ``*_mibs`` is higher-is-better
(MiB/s), ``*_ops`` is higher-is-better (service ops per second), ``*_x``
is higher-is-better (a speedup ratio), ``*_availability`` is
higher-is-better (a served-time fraction in [0, 1]).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._units import KiB, MiB, to_mib_s
from ..cluster import Cluster
from ..hardware.sci.faults import FaultPlan
from ..mpi.datatypes import BYTE, Vector
from ..mpi.pt2pt import NonContigMode
from .noncontig import measure_point
from .pingpong import pingpong
from .sparse import run_sparse
from .svc import run_svc_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import MetricsRegistry

__all__ = ["run_smoke", "smoke_registry", "SMOKE_METRICS",
           "SCENARIO_HEADLINES"]

#: Every metric :func:`run_smoke` emits, in emission order.
SMOKE_METRICS = (
    "pingpong_8b_us",
    "pingpong_1mib_mibs",
    "noncontig_generic_1kib_mibs",
    "noncontig_direct_1kib_mibs",
    "sparse_put_64b_mibs",
    "sparse_get_private_64b_mibs",
    "fault_clean_us",
    "fault_recovery_us",
    "svc_throughput_ops",
    "svc_p99_us",
    "allreduce_flat_64n_us",
    "allreduce_hier_64n_us",
    "allreduce_hier_128n_us",
    "hier_allreduce_speedup_64n_x",
    "scenario_training_step_us",
    "scenario_graph_edges_ops",
    "scenario_steal_tasks_ops",
    "scenario_coloc_p99_us",
    "scenario_coloc_rings_p99_us",
    "qos_reserved_throughput_ops",
    "qos_besteffort_p99_us",
    "kv_failover_availability",
    "kv_overload_p99_us",
)

#: (smoke gauge, scenario) pairs: each end-to-end scenario's headline
#: number, measured at the canonical clean seed-1 cell.
SCENARIO_HEADLINES = (
    ("scenario_training_step_us", "training"),
    ("scenario_graph_edges_ops", "graph"),
    ("scenario_steal_tasks_ops", "work_stealing"),
    ("scenario_coloc_p99_us", "colocation"),
    ("scenario_coloc_rings_p99_us", "colocation_rings"),
    ("qos_reserved_throughput_ops", "qos_contention"),
    ("kv_failover_availability", "kv_failover"),
)


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ops"):
        return "ops/s"
    if name.endswith("_x"):
        return "x"
    if name.endswith("_availability"):
        return "1"
    return "MiB/s"


def _fault_pair() -> tuple[float, float]:
    """Receiver-observed time (µs) of one ~192 KiB strided send, clean and
    under a lively seeded fault plan (the recovery-overhead metric)."""
    dtype = Vector(2048, 64, 96, BYTE)
    extent = 2048 * 96

    def program(ctx):
        comm = ctx.comm
        dtype.commit()
        buf = ctx.alloc(extent)
        t0 = ctx.now
        if comm.rank == 0:
            buf.read()[:] = np.arange(extent, dtype=np.uint8) % 251
            yield from comm.send(buf, dest=1, datatype=dtype, count=1)
            return None
        yield from comm.recv(buf, source=0, datatype=dtype, count=1)
        return ctx.now - t0

    clean = Cluster(n_nodes=2).run(program).results[1]
    plan = FaultPlan(seed=1, transient_rate=0.25, torn_rate=0.25,
                     stall_rate=0.15, stall_time=3000.0)
    faulty = Cluster(n_nodes=2, faults=plan).run(program).results[1]
    return clean, faulty


def smoke_registry() -> "MetricsRegistry":
    """Run every smoke metric into a fresh metrics registry.

    One :class:`~repro.obs.Gauge` per :data:`SMOKE_METRICS` name, in
    emission order; the values are exactly what the pre-registry smoke
    produced (the registry is a reporting layer, not a timing change).
    """
    from ..obs import MetricsRegistry

    registry = MetricsRegistry()
    gauges = {
        name: registry.gauge(name, unit=_unit(name), owner="repro.bench.smoke")
        for name in SMOKE_METRICS
    }
    gauges["pingpong_8b_us"].set(pingpong(8))
    gauges["pingpong_1mib_mibs"].set(to_mib_s(MiB / pingpong(1 * MiB)))
    gauges["noncontig_generic_1kib_mibs"].set(
        measure_point(1 * KiB, mode=NonContigMode.GENERIC))
    gauges["noncontig_direct_1kib_mibs"].set(
        measure_point(1 * KiB, mode=NonContigMode.DIRECT))
    gauges["sparse_put_64b_mibs"].set(
        run_sparse(64, op="put", shared=True).bandwidth)
    gauges["sparse_get_private_64b_mibs"].set(
        run_sparse(64, op="get", shared=False).bandwidth)
    clean, faulty = _fault_pair()
    gauges["fault_clean_us"].set(clean)
    gauges["fault_recovery_us"].set(faulty)
    throughput, p99 = run_svc_point()
    gauges["svc_throughput_ops"].set(throughput)
    gauges["svc_p99_us"].set(p99)
    # Topology scaling gauges: hierarchical vs. flat-chain allreduce on
    # switched multi-ringlet fabrics (each run resets the plan cache, so
    # they sit between the microbenchmarks and the scenarios, which
    # reset it again themselves).
    from .hier import run_hier_allreduce

    flat_64 = run_hier_allreduce(64, hierarchical=False)
    hier_64 = run_hier_allreduce(64)
    gauges["allreduce_flat_64n_us"].set(flat_64)
    gauges["allreduce_hier_64n_us"].set(hier_64)
    gauges["allreduce_hier_128n_us"].set(run_hier_allreduce(128))
    gauges["hier_allreduce_speedup_64n_x"].set(flat_64 / hier_64)
    # End-to-end scenario headlines last: run_scenario resets the plan
    # cache, so the microbenchmark values above stay untouched.
    from ..scenarios import run_scenario

    for gauge_name, scenario in SCENARIO_HEADLINES:
        report = run_scenario(scenario, seed=1).report
        gauges[gauge_name].set(report["headline"][gauge_name])
        if scenario == "qos_contention":
            # Companion gauge off the same cell: the throttled tenant's
            # protected-phase tail latency (the graceful-degradation
            # side of the isolation trade).
            gauges["qos_besteffort_p99_us"].set(
                report["metrics"]["qos.besteffort_latency_us.p99"])
    # The replicated-KV overload point last: it resets the plan cache
    # per run itself, and it self-checks (open-loop sojourn p99 must
    # strictly exceed the closed-loop p99 at the same per-op cost).
    from .kv import run_overload_point

    gauges["kv_overload_p99_us"].set(run_overload_point().open_p99_us)
    return registry


def run_smoke() -> dict[str, float]:
    """Run every smoke metric; returns ``{name: value}`` (see
    :data:`SMOKE_METRICS` for the order and naming convention).

    The values are read out of the :func:`smoke_registry` snapshot, so
    the CI headline numbers and the observability layer cannot drift."""
    return smoke_registry().snapshot()
