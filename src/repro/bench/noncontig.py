"""E2 / Figure 7 (and the datatype part of E5 / Figure 10): *noncontig*.

The micro-benchmark of Sec. 3.4: transmit a simple single-strided vector
datatype whose blocksize rises from 8 B to 128 kiB with stride = twice the
blocksize (equal data and gap), always moving the same total amount of
data (256 kiB).  Compared: the *generic* technique, *direct_pack_ff*, and
the equivalent *contiguous* transfer as reference — inter-node via SCI
and intra-node via shared memory.
"""

from __future__ import annotations

from typing import Optional

from .._units import KiB, to_mib_s
from ..cluster import Cluster
from ..hardware.params import NodeParams, DEFAULT_NODE
from ..mpi.datatypes import DOUBLE, Vector
from ..mpi.pt2pt.config import DEFAULT_PROTOCOL, NonContigMode
from ..platforms.base import AnalyticPlatform
from .series import Series

__all__ = [
    "DEFAULT_BLOCKSIZES",
    "TOTAL_BYTES",
    "measure_point",
    "measure_point_double_strided",
    "fig7_series",
    "fig10_platform_series",
]

#: Blocksizes of the Fig. 7 sweep (8 B .. 128 kiB).
DEFAULT_BLOCKSIZES: list[int] = [
    8, 16, 32, 64, 128, 256, 512,
    1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 128 * KiB,
]

#: Fixed payload per transfer ("which is 256 kiB for this case").
TOTAL_BYTES: int = 256 * KiB


def _make_cluster(internode: bool, mode: str,
                  node_params: NodeParams = DEFAULT_NODE) -> Cluster:
    protocol = DEFAULT_PROTOCOL.replace(noncontig_mode=mode)
    if internode:
        return Cluster(n_nodes=2, node_params=node_params, protocol=protocol)
    return Cluster(n_nodes=1, procs_per_node=2, node_params=node_params,
                   protocol=protocol)


def measure_point(
    blocksize: int,
    contiguous: bool = False,
    internode: bool = True,
    mode: str = NonContigMode.DIRECT,
    total: int = TOTAL_BYTES,
    node_params: NodeParams = DEFAULT_NODE,
) -> float:
    """Bandwidth (MiB/s) of one noncontig transfer configuration.

    The transfer is a single one-way send of ``total`` payload bytes from
    rank 0 to rank 1, either as the strided vector (blocksize, stride =
    2 x blocksize) or as the contiguous reference.
    """
    if blocksize % 8:
        raise ValueError("blocksize must be a multiple of the double size")
    cluster = _make_cluster(internode, mode, node_params)

    if contiguous:
        dtype = None
        count = None
        span = total
    else:
        nblocks = total // blocksize
        doubles_per_block = blocksize // 8
        dtype = Vector(nblocks, doubles_per_block, 2 * doubles_per_block, DOUBLE)
        dtype.commit()
        count = 1
        span = dtype.extent

    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(span)
        yield from comm.barrier()
        t0 = ctx.now
        if comm.rank == 0:
            if dtype is None:
                yield from comm.send(buf, dest=1, tag=0)
            else:
                yield from comm.send(buf, dest=1, tag=0, datatype=dtype, count=count)
            return None
        if dtype is None:
            yield from comm.recv(buf, source=0, tag=0)
        else:
            yield from comm.recv(buf, source=0, tag=0, datatype=dtype, count=count)
        return ctx.now - t0

    elapsed = cluster.run(program).results[1]
    return to_mib_s(total / elapsed)


def fig7_series(
    internode: bool = True,
    blocksizes: Optional[list[int]] = None,
    total: int = TOTAL_BYTES,
    node_params: NodeParams = DEFAULT_NODE,
) -> dict[str, Series]:
    """The three Fig. 7 curves for one locality (inter- or intra-node)."""
    blocksizes = blocksizes or DEFAULT_BLOCKSIZES
    where = "SCI" if internode else "shm"
    generic = Series(f"generic ({where})")
    direct = Series(f"direct_pack_ff ({where})")
    contiguous = Series(f"contiguous ({where})")
    contiguous_bw = measure_point(
        blocksizes[0], contiguous=True, internode=internode, total=total,
        node_params=node_params,
    )
    for blocksize in blocksizes:
        generic.add(
            blocksize,
            measure_point(blocksize, internode=internode,
                          mode=NonContigMode.GENERIC, total=total,
                          node_params=node_params),
        )
        direct.add(
            blocksize,
            measure_point(blocksize, internode=internode,
                          mode=NonContigMode.DIRECT, total=total,
                          node_params=node_params),
        )
        contiguous.add(blocksize, contiguous_bw)
    return {"generic": generic, "direct": direct, "contiguous": contiguous}


def measure_point_double_strided(
    blocksize: int,
    internode: bool = True,
    mode: str = NonContigMode.DIRECT,
    total: int = TOTAL_BYTES,
    inner_blocks: int = 8,
    node_params: NodeParams = DEFAULT_NODE,
) -> float:
    """Bandwidth (MiB/s) for a *double-strided* layout (paper Fig. 2).

    Same blocksize and same gap ratio as the single-strided sweep, but
    arranged two-dimensionally: rows of ``inner_blocks`` blocks (stride
    2 x blocksize) separated by a full gap row — the ocean-model boundary
    pattern.  Sec. 3.4: "the complexity of the datatype should have
    little influence on the performance of our optimization, since the
    algorithm is generic".
    """
    from ..mpi.datatypes import Hvector

    if blocksize % 8:
        raise ValueError("blocksize must be a multiple of the double size")
    row_bytes = inner_blocks * blocksize
    nrows = total // row_bytes
    if nrows < 1:
        raise ValueError("total too small for the requested row size")
    doubles = blocksize // 8
    inner = Vector(inner_blocks, doubles, 2 * doubles, DOUBLE)
    outer = Hvector(nrows, 1, 2 * inner.extent + blocksize, inner)
    outer.commit()

    cluster = _make_cluster(internode, mode, node_params)
    span = outer.extent

    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(span)
        yield from comm.barrier()
        t0 = ctx.now
        if comm.rank == 0:
            yield from comm.send(buf, dest=1, tag=0, datatype=outer, count=1)
            return None
        yield from comm.recv(buf, source=0, tag=0, datatype=outer, count=1)
        return ctx.now - t0

    run = cluster.run(program)
    payload = outer.size
    return to_mib_s(payload / run.results[1])


def fig10_platform_series(
    platform: AnalyticPlatform,
    blocksizes: Optional[list[int]] = None,
    total: int = TOTAL_BYTES,
) -> dict[str, Series]:
    """Fig. 10 pair (nc and c bandwidth) for one analytic platform."""
    blocksizes = blocksizes or DEFAULT_BLOCKSIZES
    pid = platform.spec.id
    nc = Series(f"{pid} nc")
    c = Series(f"{pid} c")
    c_bw = platform.contiguous_bandwidth(total)
    for blocksize in blocksizes:
        nc.add(blocksize, platform.noncontig_bandwidth(total, blocksize))
        c.add(blocksize, c_bw)
    return {"nc": nc, "c": c}
