#!/usr/bin/env python3
"""Distributed sparse matrix-vector product with one-sided communication.

Sec. 4 of the paper motivates MPI-2 one-sided communication with
"application areas with irregularly distributed data (e.g. sparse
matrices)": with two-sided messaging every rank would have to poll for
requests it cannot predict; with RMA each rank simply *gets* the vector
entries it needs.

This example:

* distributes a random sparse matrix (scipy CSR) and the vector ``x``
  block-wise over the ranks;
* exposes each rank's slice of ``x`` in an MPI window;
* each rank fetches exactly the remote entries its local rows reference
  (per-column ``win.get``, batched per owner rank) inside a fence epoch;
* accumulates the distributed result into a result window with
  ``MPI_Accumulate`` and verifies against the sequential product;
* compares window placement in *shared* SCI memory (direct gets) against
  *private* memory (emulated access) — the paper's Fig. 9 distinction.

Run with::

    python examples/sparse_matrix_rma.py
"""

import numpy as np
import scipy.sparse as sp

from repro import Cluster

N = 256          # global matrix dimension
DENSITY = 0.02   # sparse density
NPROCS = 4
SEED = 42


def build_problem():
    rng = np.random.default_rng(SEED)
    matrix = sp.random(N, N, density=DENSITY, random_state=rng, format="csr")
    x = rng.random(N)
    return matrix, x, matrix @ x, matrix.T @ x


MATRIX, X, EXPECTED, EXPECTED_T = build_problem()


def owner_of(col: int, block: int) -> int:
    return min(col // block, NPROCS - 1)


def program(ctx, shared):
    comm = ctx.comm
    rank, size = comm.rank, comm.size
    block = N // size
    lo = rank * block
    hi = N if rank == size - 1 else lo + block
    local_rows = MATRIX[lo:hi]

    # Window 1: my slice of x, exposed for remote gets.
    x_win = yield from comm.win_create((hi - lo) * 8, shared=shared)
    x_win.local_view().view(np.float64)[:] = X[lo:hi]

    # Window 2: my slice of the result, accumulated into by everyone.
    y_win = yield from comm.win_create((hi - lo) * 8, shared=shared)
    y_win.local_view().view(np.float64)[:] = 0.0

    yield from x_win.fence()
    t0 = ctx.now

    # Which remote columns do my rows touch?  Group them per owner.
    needed = np.unique(local_rows.indices)
    x_local = np.zeros(N)
    fetched = []
    for owner in range(size):
        cols = needed[(needed >= owner * block) & (
            needed < (N if owner == size - 1 else (owner + 1) * block)
        )]
        if cols.size == 0:
            continue
        if owner == rank:
            x_local[cols] = X[cols]
            continue
        # Fetch each needed entry one-sidedly (fine-grained gets, exactly
        # the access pattern of the paper's *sparse* benchmark); a get's
        # buffer holds its data once the fence has passed.
        for col in cols:
            data = yield from x_win.get(8, owner, int(col - owner * block) * 8)
            fetched.append((col, data))
    yield from x_win.fence()
    for col, data in fetched:
        x_local[col] = data.view(np.float64)[0]
    gather_us = ctx.now - t0

    # Phase 1 result: my rows only need local accumulation.
    y_contrib = local_rows @ x_local
    yield from y_win.accumulate(y_contrib, rank, 0, op="sum")
    yield from y_win.fence()
    result = np.array(y_win.local_view().view(np.float64), copy=True)
    assert np.allclose(result, EXPECTED[lo:hi]), "wrong SpMV result"

    # Phase 2: the transpose product A^T x.  My rows are *columns* of
    # A^T, so every rank produces contributions for every owner — a true
    # scatter of remote MPI_Accumulate operations.
    yt_win = yield from comm.win_create((hi - lo) * 8, shared=shared)
    yt_win.local_view().view(np.float64)[:] = 0.0
    yield from yt_win.fence()
    t0 = ctx.now
    contrib_t = local_rows.T @ X[lo:hi]  # dense length-N contribution
    for owner in range(size):
        o_lo = owner * block
        o_hi = N if owner == size - 1 else o_lo + block
        piece = contrib_t[o_lo:o_hi]
        if not piece.any():
            continue
        yield from yt_win.accumulate(piece, owner, 0, op="sum")
    yield from yt_win.fence()
    accumulate_us = ctx.now - t0
    result_t = np.array(yt_win.local_view().view(np.float64), copy=True)
    assert np.allclose(result_t, EXPECTED_T[lo:hi]), "wrong transpose result"

    return {"rank": rank, "gather_us": gather_us, "accumulate_us": accumulate_us,
            "fetched": int(needed.size)}


def main() -> None:
    for shared in (True, False):
        cluster = Cluster(n_nodes=NPROCS)
        run = cluster.run(lambda ctx: program(ctx, shared))
        label = "shared (direct SCI access)" if shared else "private (emulated)"
        worst_gather = max(r["gather_us"] for r in run.results)
        worst_acc = max(r["accumulate_us"] for r in run.results)
        print(f"x in {label:28s}: gather {worst_gather:9.1f} µs, "
              f"accumulate {worst_acc:8.1f} µs")
        if shared:
            shared_gather = worst_gather
    print("sparse SpMV verified against the sequential product")
    print("OK")


if __name__ == "__main__":
    main()
