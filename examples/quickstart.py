#!/usr/bin/env python3
"""Quickstart: a two-node simulated SCI cluster exchanging messages.

Demonstrates the basic workflow:

1. build a :class:`repro.Cluster` (nodes + SCI ringlet + MPI world);
2. write an SPMD program as a generator taking a rank context;
3. run it and look at results and simulated time.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro import Cluster, DOUBLE, KiB, Vector, to_mib_s


def program(ctx):
    """Each rank: exchange a contiguous and a strided message with rank 0."""
    comm = ctx.comm
    rank, size = comm.rank, comm.size

    # --- contiguous: everyone sends 64 kiB to the right neighbour ----------
    payload = ctx.alloc(64 * KiB)
    inbox = ctx.alloc(64 * KiB)
    payload.fill(rank + 1)
    right, left = (rank + 1) % size, (rank - 1) % size
    t0 = ctx.now
    yield from comm.sendrecv(payload, right, inbox, left)
    contiguous_us = ctx.now - t0
    assert inbox.read(0, 1)[0] == left + 1

    # --- strided: a vector datatype (every second double) ------------------
    vec = Vector(count=1024, blocklength=1, stride=2, oldtype=DOUBLE).commit()
    strided = ctx.alloc(vec.extent)
    strided_in = ctx.alloc(vec.extent)
    view = strided.as_array(np.float64)
    view[::2] = np.arange(1024) * (rank + 1)
    t0 = ctx.now
    yield from comm.sendrecv(
        strided, right, strided_in, left,
        send_datatype=vec, send_count=1, recv_datatype=vec, recv_count=1,
    )
    strided_us = ctx.now - t0
    got = strided_in.as_array(np.float64)[::2]
    assert got[5] == 5 * (left + 1)

    # --- a collective -------------------------------------------------------
    contribution = ctx.alloc(8)
    total = ctx.alloc(8)
    contribution.as_array(np.float64)[0] = float(rank)
    yield from comm.allreduce(contribution, total, op="sum")
    world_sum = float(total.as_array(np.float64)[0])

    return {
        "rank": rank,
        "contiguous_MiB_s": to_mib_s(64 * KiB / contiguous_us),
        "strided_MiB_s": to_mib_s(8 * KiB / strided_us),
        "world_sum": world_sum,
    }


def main() -> None:
    cluster = Cluster(n_nodes=4)
    run = cluster.run(program)
    print(f"simulated time: {run.elapsed:.1f} µs "
          f"({run.elapsed / 1e3:.3f} ms)")
    for result in run.results:
        print(
            f"rank {result['rank']}: contiguous {result['contiguous_MiB_s']:7.1f} MiB/s,"
            f" strided {result['strided_MiB_s']:7.1f} MiB/s,"
            f" allreduce sum = {result['world_sum']:.0f}"
        )
    expected = sum(range(cluster.n_ranks))
    assert all(r["world_sum"] == expected for r in run.results)
    print("OK")


if __name__ == "__main__":
    main()
