#!/usr/bin/env python3
"""Ring saturation and topology scaling — the paper's Table 2 story.

Walks through the scalability argument of Sec. 5.3:

1. a single SCI ringlet keeps per-node bandwidth flat while each segment
   carries one transfer, but saturates when every transfer crosses a
   common segment;
2. raising the link frequency from 166 to 200 MHz (633 -> 762 MiB/s)
   restores bandwidth roughly proportionally;
3. for larger systems the paper proposes 8-node ringlets in a 3-D torus
   ("a 512 nodes system when using 3D-torus topology") — we route a
   worst-case traffic pattern on that torus and show the per-segment
   utilization stays bounded.

Run with::

    python examples/ring_saturation.py
"""

from collections import Counter

from repro.bench.ring import (
    PAPER_DEMAND_MIB_S,
    link_frequency_comparison,
    ring_scalability_table,
    table2,
)
from repro.bench.series import render_table
from repro.hardware.sci.topology import TorusTopology


def torus_utilization(dims=(8, 8, 8)) -> tuple[int, float]:
    """Max and mean data-segment utilization for a shift permutation on a
    torus of ``dims`` (every node sends to the node diagonally +1 away)."""
    torus = TorusTopology(dims)
    counts: Counter = Counter()
    for node in range(torus.n_nodes):
        coords = torus.coords(node)
        partner = torus.node_at(tuple((c + 1) % d for c, d in zip(coords, torus.dims)))
        route = torus.route(node, partner)
        counts.update(route.data_segments)
    utilizations = list(counts.values())
    return max(utilizations), sum(utilizations) / len(utilizations)


def main() -> None:
    print("Measured-demand variant (solo MPI_Put stream on the simulator):")
    print(render_table(table2()))
    print()
    print("Calibrated variant (the paper's implied 120.83 MiB/s demand):")
    print(render_table(ring_scalability_table(PAPER_DEMAND_MIB_S)))
    print()

    rates = link_frequency_comparison()
    r166, r200 = rates[166.0], rates[200.0]
    print(f"worst-case per-node bandwidth at 166 MHz: {r166:6.1f} MiB/s")
    print(f"worst-case per-node bandwidth at 200 MHz: {r200:6.1f} MiB/s "
          f"(x{r200 / r166:.2f}; ring bandwidth grew x1.20)")
    print()

    max_util, mean_util = torus_utilization((8, 8, 8))
    print(f"512-node 3-D torus (8x8x8), diagonal-shift pattern: "
          f"max segment utilization {max_util}, mean {mean_util:.2f}")
    assert max_util <= 2, "torus routing should keep utilization bounded"
    print("OK")


if __name__ == "__main__":
    main()
