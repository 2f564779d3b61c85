"""E9 / Table 2 and E7 / Figure 12: ring saturation and OSC scaling.

Table 2 varies the number of active nodes (4..8) and the *segment
utilization* — how many concurrent transfers cross the bottleneck ring
segment (1 = everyone talks to the next neighbour; maximal = every
transfer crosses one common segment).  Reported per configuration:
per-node bandwidth, accumulated bandwidth, relative ring *load* (offered
demand / nominal ring bandwidth) and *efficiency* (delivered / nominal).

Figure 12 plots, for each platform with hardware-supported one-sided
communication, the minimum per-process MPI_Put bandwidth of the sparse
benchmark as the process count grows.

The SCI rows are produced by the simulator: a solo run measures the
per-node injection rate, then concurrent flows share the ring through the
congestion-calibrated :class:`~repro.hardware.sci.flows.FlowNetwork`.
"""

from __future__ import annotations

from typing import Optional

from .._units import KiB, MiB, mib_s, to_mib_s
from ..hardware.params import DEFAULT_NODE, NodeParams
from ..hardware.sci.flows import FlowNetwork
from ..hardware.sci.topology import RingTopology, Route
from ..platforms.base import AnalyticPlatform
from ..sim import Engine
from ..mpi.transport.policy import TransferPolicy
from .series import Series, Table

__all__ = [
    "measure_put_rate",
    "ring_scalability_table",
    "table2",
    "fig12_sci_series",
    "fig12_platform_series",
    "fig12_intranode_series",
    "link_frequency_comparison",
    "PAPER_DEMAND_MIB_S",
]

#: The per-node demand the paper's Table 2 implies (120.83 MiB/s); used
#: for the calibrated variant of the table.
PAPER_DEMAND_MIB_S: float = 120.83


def measure_put_rate(
    access_size: int = 4 * KiB,
    node_params: NodeParams = DEFAULT_NODE,
    policy: Optional[TransferPolicy] = None,
) -> float:
    """Solo per-node MPI_Put streaming rate (MiB/s), via the simulator."""
    from .sparse import run_sparse

    result = run_sparse(access_size, op="put", shared=True,
                        winsize=256 * KiB, node_params=node_params,
                        policy=policy)
    return result.bandwidth


def _simulate_shared_bottleneck(
    n_flows: int,
    demand_bpus: float,
    ring_nodes: int,
    node_params: NodeParams,
    max_utilization: bool,
) -> float:
    """Per-flow delivered rate (B/µs) through the flow network.

    ``max_utilization``: every flow is routed across one common segment
    (the Table 2 worst case); otherwise each flow uses only its own
    segment (neighbour transfers, utilization 1).
    """
    engine = Engine()
    ring = RingTopology(ring_nodes)
    capacities = {s: node_params.link.bandwidth for s in ring.segments()}
    net = FlowNetwork(engine, capacities, echo_ratio=0.0)
    nbytes = 64 * MiB  # long-lived flows; steady-state rate is what matters
    for i in range(n_flows):
        if max_utilization:
            route = Route(data_segments=(0,), echo_segments=())
        else:
            route = Route(data_segments=(i % ring_nodes,), echo_segments=())
        net.transfer(route, float(nbytes), demand_bpus)
    engine.run()
    # All flows are symmetric: delivered rate = bytes / completion time.
    return nbytes / engine.now


def ring_scalability_table(
    demand_mib_s: float,
    node_counts: Optional[list[int]] = None,
    ring_nodes: int = 8,
    node_params: NodeParams = DEFAULT_NODE,
) -> Table:
    """Table 2 for a given per-node demand (MiB/s)."""
    node_counts = node_counts or [4, 5, 6, 7, 8]
    nominal = to_mib_s(node_params.link.bandwidth)
    table = Table(
        title=(
            f"Ring scalability (demand {demand_mib_s:.2f} MiB/s per node, "
            f"ring {nominal:.0f} MiB/s)"
        ),
        columns=["nodes", "pn-1t", "acc-1t", "pn-max", "acc-max", "load%", "eff%"],
    )
    demand = mib_s(demand_mib_s)
    for n in node_counts:
        per_node_1 = to_mib_s(
            _simulate_shared_bottleneck(n, demand, ring_nodes, node_params, False)
        )
        per_node_max = to_mib_s(
            _simulate_shared_bottleneck(n, demand, ring_nodes, node_params, True)
        )
        load = n * demand_mib_s / nominal
        eff = n * per_node_max / nominal
        table.add_row(
            n,
            per_node_1,
            n * per_node_1,
            per_node_max,
            n * per_node_max,
            100.0 * load,
            100.0 * eff,
        )
    return table


def table2(
    node_params: NodeParams = DEFAULT_NODE,
    use_paper_demand: bool = False,
    access_size: int = 4 * KiB,
) -> Table:
    """Reproduce Table 2.

    ``use_paper_demand=True`` feeds the congestion model the per-node
    demand implied by the paper (120.83 MiB/s) — the calibrated variant;
    otherwise the demand is measured from a solo simulated MPI_Put run.
    """
    demand = (
        PAPER_DEMAND_MIB_S if use_paper_demand
        else measure_put_rate(access_size, node_params)
    )
    return ring_scalability_table(demand, node_params=node_params)


def fig12_sci_series(
    node_counts: Optional[list[int]] = None,
    node_params: NodeParams = DEFAULT_NODE,
    access_size: int = 4 * KiB,
    policy: Optional[TransferPolicy] = None,
) -> Series:
    """SCI curve of Fig. 12: min per-process put bandwidth vs. process
    count (``policy`` as in :func:`~repro.bench.sparse.run_sparse`)."""
    node_counts = node_counts or [2, 3, 4, 5, 6, 7, 8]
    demand_mib = measure_put_rate(access_size, node_params, policy)
    demand = mib_s(demand_mib)
    series = Series("M-S (SCI)", x_unit="processes")
    for n in node_counts:
        rate = _simulate_shared_bottleneck(n, demand, 8, node_params, True)
        series.add(n, to_mib_s(rate))
    return series


def fig12_intranode_series(
    node_counts: Optional[list[int]] = None,
    node_params: NodeParams = DEFAULT_NODE,
    access_size: int = 4 * KiB,
    policy: Optional[TransferPolicy] = None,
) -> Series:
    """M-s curve of Fig. 12: SCI-MPICH intra-node put scaling.

    All ranks share one node; concurrent window writes contend on the
    node's memory bus — the mechanism behind "shared-memory platforms
    ... scale very badly for coarse-grained accesses" (Sec. 5.3).
    ``policy`` as in :func:`~repro.bench.sparse.run_sparse`.
    """
    from .sparse import run_sparse

    node_counts = node_counts or [2, 3, 4, 5, 6, 7, 8]
    series = Series("M-s (intra-node shm)", x_unit="processes")
    for n in node_counts:
        result = run_sparse(access_size, op="put", shared=True,
                            winsize=64 * KiB, node_params=node_params,
                            nprocs=n, intranode=True, policy=policy)
        series.add(n, result.bandwidth)
    return series


def fig12_platform_series(
    platform: AnalyticPlatform,
    node_counts: Optional[list[int]] = None,
    access_size: int = 4 * KiB,
) -> Series:
    """Fig. 12 curve for one analytic platform."""
    node_counts = node_counts or [2, 3, 4, 5, 6, 7, 8]
    series = Series(platform.spec.id, x_unit="processes")
    for n in node_counts:
        series.add(n, platform.scaling_bandwidth(n, access_size))
    return series


def link_frequency_comparison(
    frequencies_mhz: tuple[float, float] = (166.0, 200.0),
    n_nodes: int = 8,
    access_size: int = 4 * KiB,
) -> dict[float, float]:
    """The 200 MHz follow-up: worst-case per-node bandwidth per link speed.

    The paper: raising the link frequency to 200 MHz (762 MiB/s) increased
    the measured worst-case bandwidth linearly with the ring bandwidth.
    """
    out = {}
    for mhz in frequencies_mhz:
        params = DEFAULT_NODE.with_link_mhz(mhz)
        demand = mib_s(measure_put_rate(access_size, params))
        rate = _simulate_shared_bottleneck(n_nodes, demand, 8, params, True)
        out[mhz] = to_mib_s(rate)
    return out
