"""E4 / Figure 9 (and E6 / Figure 11): the *sparse* micro-benchmark.

Fig. 8's pseudo-code: with a fixed access size and stride 2 (a gap of one
access after every access), each process iterates through its partner's
part of the global window with MPI_Put or MPI_Get, then everyone calls
MPI_Win_fence.  Reported per access size: the latency of each
communication call and the overall bandwidth.

Variants: put/get x window in *shared* SCI memory (direct access) or in
*private* process memory (emulated access) — the four curve families of
Fig. 9 — plus the analytic comparison platforms for Fig. 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._units import KiB, to_mib_s
from ..cluster import Cluster
from ..hardware.params import DEFAULT_NODE, NodeParams
from ..mpi.transport.policy import TransferPolicy
from ..platforms.base import AnalyticPlatform
from .series import Series

__all__ = [
    "DEFAULT_ACCESS_SIZES",
    "SparseResult",
    "run_sparse",
    "fig9_series",
    "fig11_platform_series",
]

#: Access sizes of the Fig. 9 sweep (one double .. 64 kiB).
DEFAULT_ACCESS_SIZES: list[int] = [
    8, 16, 24, 32, 64, 128, 256, 512, 1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB,
]


@dataclass(frozen=True)
class SparseResult:
    """One sparse measurement point."""

    access_size: int
    calls: int
    elapsed: float          # µs for all calls + the closing fence
    bytes_moved: int

    @property
    def latency(self) -> float:
        """Per-call latency in µs."""
        return self.elapsed / self.calls if self.calls else 0.0

    @property
    def bandwidth(self) -> float:
        """Overall bandwidth in MiB/s."""
        return to_mib_s(self.bytes_moved / self.elapsed) if self.elapsed else 0.0


def run_sparse(
    access_size: int,
    op: str = "put",
    shared: bool = True,
    winsize: int = 128 * KiB,
    node_params: NodeParams = DEFAULT_NODE,
    nprocs: int = 2,
    intranode: bool = False,
    policy: Optional[TransferPolicy] = None,
) -> SparseResult:
    """Run the sparse benchmark between ``nprocs`` ranks.

    Ranks live on distinct nodes (the M-S row) or together on one node
    (``intranode=True``, the M-s shared-memory row).  Each rank accesses
    the window part of its partner (rank+1 mod n) with stride 2 (paper:
    "after each data element, a gap of the same size follows which is not
    accessed").  ``policy`` forces the one-sided strategy (the paper
    figures name :class:`~repro.mpi.transport.PaperThresholdPolicy`).
    Returns rank 0's measurement.
    """
    if op not in ("put", "get"):
        raise ValueError(f"op must be 'put' or 'get', got {op!r}")
    stride = 2 * access_size
    calls = max(1, (winsize - access_size) // stride + 1)

    def program(ctx):
        comm = ctx.comm
        win = yield from comm.win_create(winsize, shared=shared)
        partner = (comm.rank + 1) % comm.size
        payload = np.full(access_size, (comm.rank + 1) & 0xFF, dtype=np.uint8)
        yield from ctx.flush_cache()
        yield from win.fence()
        t0 = ctx.now
        offset = 0
        ncalls = 0
        while offset + access_size <= winsize:
            if op == "put":
                yield from win.put(payload, partner, offset)
            else:
                _ = yield from win.get(access_size, partner, offset)
            offset += stride
            ncalls += 1
        yield from win.fence()
        return (ncalls, ctx.now - t0)

    if intranode:
        cluster = Cluster(n_nodes=1, procs_per_node=max(nprocs, 2),
                          node_params=node_params, policy=policy)
    else:
        cluster = Cluster(n_nodes=max(nprocs, 2), node_params=node_params,
                          policy=policy)
    run = cluster.run_on_ranks({r: program for r in range(nprocs)})
    ncalls, elapsed = run.results[0]
    return SparseResult(
        access_size=access_size,
        calls=ncalls,
        elapsed=elapsed,
        bytes_moved=ncalls * access_size,
    )


def fig9_series(
    access_sizes: Optional[list[int]] = None,
    winsize: int = 128 * KiB,
    node_params: NodeParams = DEFAULT_NODE,
    policy: Optional[TransferPolicy] = None,
) -> dict[str, dict[str, Series]]:
    """The four Fig. 9 curve families: {variant: {latency, bandwidth}}.

    Variants: ``put-shared``, ``get-shared``, ``put-private``,
    ``get-private``; ``policy`` as in :func:`run_sparse`.
    """
    access_sizes = access_sizes or DEFAULT_ACCESS_SIZES
    out: dict[str, dict[str, Series]] = {}
    for op in ("put", "get"):
        for shared in (True, False):
            key = f"{op}-{'shared' if shared else 'private'}"
            latency = Series(key, y_unit="µs")
            bandwidth = Series(key)
            for size in access_sizes:
                result = run_sparse(size, op=op, shared=shared,
                                    winsize=winsize, node_params=node_params,
                                    policy=policy)
                latency.add(size, result.latency)
                bandwidth.add(size, result.bandwidth)
            out[key] = {"latency": latency, "bandwidth": bandwidth}
    return out


def fig11_platform_series(
    platform: AnalyticPlatform,
    access_sizes: Optional[list[int]] = None,
    op: str = "put",
) -> dict[str, Series]:
    """Fig. 11 latency/bandwidth curves for one analytic platform."""
    access_sizes = access_sizes or DEFAULT_ACCESS_SIZES
    pid = platform.spec.id
    latency = Series(pid, y_unit="µs")
    bandwidth = Series(pid)
    for size in access_sizes:
        call = platform.osc_call_time(size, op)
        latency.add(size, call)
        bandwidth.add(size, to_mib_s(size / call))
    return {"latency": latency, "bandwidth": bandwidth}
