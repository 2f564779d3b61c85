#!/usr/bin/env python3
"""2-D heat diffusion with the HaloExchanger, traced.

Demonstrates the higher-level application layer:

* :class:`repro.apps.HaloExchanger` builds the per-face ``Subarray``
  datatypes and drives the nonblocking exchange;
* :func:`repro.obs.attach_tracer` records where simulated time goes;
* the run verifies physics (heat conservation on a periodic domain) and
  compares the generic vs direct_pack_ff transfer technique.

Run with::

    python examples/stencil_trace.py
"""

import numpy as np

from repro import Cluster, NonContigMode, ProtocolConfig
from repro.apps import HaloExchanger
from repro.obs import attach_tracer

PROCS = (2, 2)
INTERIOR = (96, 96)
STEPS = 5
ALPHA = 0.2


def program(ctx):
    comm = ctx.comm
    halo = HaloExchanger(comm, PROCS, INTERIOR, periodic=True)
    buf = ctx.alloc(halo.nbytes)
    grid = halo.view(buf)
    grid[:] = 0.0
    interior = halo.interior_view(buf)
    # A hot square in rank 0's block.
    if comm.rank == 0:
        interior[20:40, 20:40] = 100.0
    local_heat_start = float(interior.sum())

    t0 = ctx.now
    for _ in range(STEPS):
        yield from halo.exchange(buf)
        lap = (
            grid[:-2, 1:-1] + grid[2:, 1:-1]
            + grid[1:-1, :-2] + grid[1:-1, 2:]
            - 4.0 * grid[1:-1, 1:-1]
        )
        interior += ALPHA * lap
        yield ctx.cluster.engine.timeout(80.0)  # modelled compute time
    elapsed = ctx.now - t0

    # Global heat must be conserved on the periodic domain.
    heat = ctx.alloc(8)
    total = ctx.alloc(8)
    heat.as_array(np.float64)[0] = float(interior.sum())
    yield from comm.allreduce(heat, total, op="sum")
    return {
        "rank": comm.rank,
        "elapsed": elapsed,
        "heat_start": local_heat_start,
        "heat_total": float(total.as_array(np.float64)[0]),
    }


def main() -> None:
    # A 2-D double-precision stencil has 8-byte east/west halo columns —
    # exactly the block size where the paper says the generic technique
    # wins inter-node.  The default (AUTO) prices the techniques per
    # message and picks the cheapest for each face.
    configs = {
        NonContigMode.GENERIC: ProtocolConfig(noncontig_mode=NonContigMode.GENERIC),
        NonContigMode.DIRECT: ProtocolConfig(noncontig_mode=NonContigMode.DIRECT),
        NonContigMode.DMA: ProtocolConfig(noncontig_mode=NonContigMode.DMA),
        NonContigMode.AUTO: ProtocolConfig(),
    }
    times = {}
    for mode, protocol in configs.items():
        cluster = Cluster(n_nodes=PROCS[0] * PROCS[1], protocol=protocol)
        tracer = attach_tracer(cluster)
        run = cluster.run(program)
        worst = max(r["elapsed"] for r in run.results)
        times[mode] = worst
        total_heat = run.results[0]["heat_total"]
        start_heat = sum(r["heat_start"] for r in run.results)
        assert abs(total_heat - start_heat) < 1e-6 * max(start_heat, 1.0), (
            "heat not conserved"
        )
        print(f"{mode:8s}: {STEPS} steps in {worst:9.1f} µs simulated "
              f"(global heat {total_heat:.1f}, conserved)")
        if mode == NonContigMode.AUTO:
            print(tracer.summary())
    best_fixed = min(t for mode, t in times.items()
                     if mode != NonContigMode.AUTO)
    print(f"AUTO (cost verdict) vs best fixed technique: "
          f"{best_fixed / times[NonContigMode.AUTO]:.2f}x")
    assert times[NonContigMode.AUTO] <= 1.05 * best_fixed
    print("OK")


if __name__ == "__main__":
    main()
