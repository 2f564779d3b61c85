"""Distributed sparse matrix-vector products over one-sided communication.

The paper's Sec. 4 motivation made reusable: a row-block-distributed CSR
matrix whose vector accesses go through an MPI window — remote entries are
*gotten* one-sidedly (no receiver involvement), transpose products
*accumulate* into remote result windows.

Usage (inside a rank program)::

    spmv = yield from DistributedSpMV.create(ctx, matrix, shared=True)
    y_local = yield from spmv.multiply(x_global_initial)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np


if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.builder import RankContext

__all__ = ["DistributedSpMV"]


class DistributedSpMV:
    """Row-block-distributed SpMV with window-based vector access."""

    def __init__(self, ctx: "RankContext", matrix: sp.csr_matrix, lo: int,
                 hi: int, x_win, y_win):
        self.ctx = ctx
        self.comm = ctx.comm
        self.n = matrix.shape[1]
        self.local_rows = matrix[lo:hi]
        self.lo, self.hi = lo, hi
        self.x_win = x_win
        self.y_win = y_win
        self.block = self.n // self.comm.size

    # -- construction (collective) ---------------------------------------------------

    @classmethod
    def create(cls, ctx: "RankContext", matrix: sp.csr_matrix,
               shared: bool = True):
        """DES generator: collectively build the distributed operator.

        ``matrix`` must be identical on every rank (it is sliced locally);
        ``shared`` selects SCI-shared vs private window memory.
        """
        import scipy.sparse as sp  # here only: some 340 modules nothing else needs

        comm = ctx.comm
        n = matrix.shape[0]
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("square matrices only")
        block = n // comm.size
        lo = comm.rank * block
        hi = n if comm.rank == comm.size - 1 else lo + block
        x_win = yield from comm.win_create((hi - lo) * 8, shared=shared)
        y_win = yield from comm.win_create((hi - lo) * 8, shared=shared)
        return cls(ctx, sp.csr_matrix(matrix), lo, hi, x_win, y_win)

    def owner_bounds(self, owner: int) -> tuple[int, int]:
        lo = owner * self.block
        hi = self.n if owner == self.comm.size - 1 else lo + self.block
        return lo, hi

    # -- operations --------------------------------------------------------------------

    def scatter_x(self, x_global: np.ndarray):
        """DES generator: load this rank's slice of x into its window."""
        self.x_win.local_view().view(np.float64)[:] = x_global[self.lo : self.hi]
        yield from self.x_win.fence()

    def gather_remote_x(self) -> "np.ndarray":
        """DES generator: fetch every remote x entry my rows reference."""
        comm = self.comm
        needed = np.unique(self.local_rows.indices)
        x = np.zeros(self.n)
        for owner in range(comm.size):
            o_lo, o_hi = self.owner_bounds(owner)
            cols = needed[(needed >= o_lo) & (needed < o_hi)]
            if cols.size == 0:
                continue
            if owner == comm.rank:
                local = self.x_win.local_view().view(np.float64)
                x[cols] = local[cols - o_lo]
                continue
            # Coalesce adjacent columns into ranges to reduce call count
            # (the "gathering multiple small accesses" optimization the
            # MPI-2 synchronization semantics allow, Sec. 4.1).
            start = prev = int(cols[0])
            runs = []
            for col in cols[1:]:
                col = int(col)
                if col == prev + 1:
                    prev = col
                    continue
                runs.append((start, prev))
                start = prev = col
            runs.append((start, prev))
            for run_lo, run_hi in runs:
                nbytes = (run_hi - run_lo + 1) * 8
                data = yield from self.x_win.get(
                    nbytes, owner, (run_lo - o_lo) * 8
                )
                x[run_lo : run_hi + 1] = data.view(np.float64)
        yield from self.x_win.fence()
        return x

    def multiply(self, x_global: np.ndarray):
        """DES generator: y = A x; returns this rank's y slice."""
        yield from self.scatter_x(np.asarray(x_global, dtype=np.float64))
        x = yield from self.gather_remote_x()
        y_local = self.local_rows @ x
        return y_local

