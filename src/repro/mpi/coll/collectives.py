"""Collective operations built on the point-to-point device.

Classic algorithms: binomial trees for barrier/bcast/reduce, ring
allgather, recursive structure kept simple — these exist to support the
examples and benchmarks (the paper's focus is pt2pt datatypes and
one-sided), but they are real implementations exercising the full
protocol stack: every payload byte moves through the transport layer's
scheduler via ``comm.send``/``comm.recv``.

When the world's :class:`~repro.mpi.transport.policy.TransferPolicy`
asks for it (``collective_chunk``), large broadcasts are split into
packed-stream *segments* and pipelined down a chain of ranks — the
plan-aware chunked data path (each segment packs straight out of user
memory; no staging copy).  The ring allgather and the pairwise alltoall
are already pipelined at message granularity, so the default policy
keeps them monolithic.

On switched multi-ringlet fabrics (any
:class:`~repro.hardware.sci.topology.Topology` with more than one
locality domain), ``bcast`` and ``allreduce`` switch to *hierarchical*
algorithms when the policy's ``hierarchical_collective`` approves:
ranks aggregate within their ringlet first, group leaders exchange
across the switch (one message per ringlet instead of one per rank on
the scarce crossbar links, chunk-pipelined past
``policy.cross_chunk``), and leaders fan the result back out
ringlet-locally.  Single-domain topologies — the plain ring — always
take the flat algorithms, bit-identically to the pre-topology code.

All functions are DES generators taking the caller's Communicator.
Reductions fold in place inside the address space — in ``recvbuf`` where
it is output, else in scratch borrowed from the rank's free list and
handed back — and leaf ranks send ``sendbuf`` itself.  Aliasing user
memory across yields is safe: a blocking collective owns its buffers
until it returns, and no other rank holds a handle to private memory
(docs/PROTOCOLS.md, "What a collective allocates").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..datatypes.basic import BYTE, BasicType, DOUBLE
from ..errors import MPIError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..comm import Communicator
    from ...memlib import Buffer

__all__ = [
    "OPS",
    "allgather",
    "allreduce",
    "alltoall",
    "barrier",
    "bcast",
    "gather",
    "reduce",
    "reduce_scatter_block",
    "scatter",
]

#: Reserved tag space for collectives (user tags must stay below this).
COLL_TAG = 1 << 20

#: Reduction operators: numpy ufuncs, so a fold can name its output
#: (``ufunc(acc, x, out=acc)``); also the accumulate table of ``mpi.osc``.
OPS: dict[str, np.ufunc] = {
    "sum": np.add,
    "prod": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    # Bitwise ops (MPI_BAND/BOR/BXOR) on integer dtypes; `bor` is the
    # repro.svc seqlock write-claim primitive (fetch_and_op of the
    # version word's busy bit).
    "band": np.bitwise_and,
    "bor": np.bitwise_or,
    "bxor": np.bitwise_xor,
}


def barrier(comm: "Communicator"):
    """Dissemination barrier: ceil(log2 n) rounds of pt2pt exchanges."""
    size = comm.size
    if size == 1:
        return
        yield  # pragma: no cover - generator marker
    rank = comm.rank
    token = comm.alloc_scratch(1)  # may be larger: hence count=1
    try:
        distance = 1
        while distance < size:
            dst = (rank + distance) % size
            src = (rank - distance) % size
            req = comm.isend(token, dst, tag=COLL_TAG + 1, count=1)
            yield from comm.recv(token, source=src, tag=COLL_TAG + 1, count=1)
            yield from req.wait()
            distance *= 2
    finally:
        comm.free_scratch(token)


def _collective_chunk(comm: "Communicator", buf: "Buffer", datatype,
                      count: Optional[int]):
    """Policy decision for one collective payload: ``(dtype, count,
    total_bytes, chunk_or_None)``."""
    dtype = datatype if datatype is not None else BYTE
    dtype.commit()
    if count is None:
        if not dtype.is_contiguous or not dtype.size:
            return dtype, count, 0, None
        count = buf.nbytes // dtype.size
    total = dtype.flattened.size * count
    chunk = comm.device.policy.collective_chunk(total, comm.size)
    if chunk is not None and chunk >= total:
        chunk = None
    return dtype, count, total, chunk


def _topology_groups(comm: "Communicator") -> Optional[tuple[tuple[int, ...], ...]]:
    """Comm-local ranks per fabric locality domain, ordered by group id.

    Groups come from the topology's ``node_group`` (the ringlet / leaf
    switch each rank's node sits on); ``None`` means the fabric has a
    single domain and the flat algorithms apply.  They depend only on the
    communicator's group and the immutable topology and placement, so
    they are resolved once per group and shared by every rank and call.
    """
    memo = comm.device.world.locality_groups
    if comm.group not in memo:
        smi = comm.device.smi
        topology = smi.fabric.topology
        groups: dict[int, list[int]] = {}
        for local, world_rank in enumerate(comm.group):
            node = smi.node_of(world_rank)
            groups.setdefault(topology.node_group(node.node_id), []).append(local)
        memo[comm.group] = (
            tuple(tuple(groups[g]) for g in sorted(groups)) if len(groups) > 1 else None)
    return memo[comm.group]


def _hier_groups(comm: "Communicator", kind: str,
                 nbytes: int) -> Optional[tuple[tuple[int, ...], ...]]:
    """The locality groups if this collective should run hierarchically."""
    groups = _topology_groups(comm)
    if groups is None:
        return None
    policy = comm.device.policy
    if not policy.hierarchical_collective(kind, nbytes, comm.size, len(groups)):
        return None
    return groups


def _member_bcast(comm: "Communicator", buf: "Buffer", members: Sequence[int],
                  root: int, tag: int, datatype=None,
                  count: Optional[int] = None, chunk: Optional[int] = None,
                  total: Optional[int] = None):
    """Broadcast over an explicit member list (comm-local ranks).

    Binomial tree by default; with ``chunk`` (and at least three members
    to pipeline through), a chain-pipelined segment stream like
    :func:`_bcast_chained` but confined to ``members``.
    """
    m = len(members)
    if m == 1:
        return
    idx = members.index(comm.rank)
    root_idx = members.index(root)
    relative = (idx - root_idx) % m
    if chunk is not None and m >= 3 and total is not None and chunk < total:
        prev = members[(idx - 1) % m]
        nxt = members[(idx + 1) % m]
        pending = None
        pos = 0
        while pos < total:
            n = min(chunk, total - pos)
            seg = (pos, n)
            if relative != 0:
                yield from comm.recv(buf, source=prev, tag=tag,
                                     datatype=datatype, count=count,
                                     segment=seg)
            if relative != m - 1:
                if pending is not None:
                    yield from pending.wait()
                pending = comm.isend(buf, nxt, tag=tag, datatype=datatype,
                                     count=count, segment=seg)
            pos += n
        if pending is not None:
            yield from pending.wait()
        return
    mask = 1
    while mask < m:
        if relative & mask:
            parent = members[((relative & ~mask) + root_idx) % m]
            yield from comm.recv(buf, source=parent, tag=tag,
                                 datatype=datatype, count=count)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        child_rel = relative | mask
        if child_rel != relative and child_rel < m:
            child = members[(child_rel + root_idx) % m]
            yield from comm.send(buf, child, tag=tag, datatype=datatype,
                                 count=count)
        mask >>= 1


def _check_reduction(op: str, datatype: BasicType, count: int,
                     sendbuf: "Buffer", recvbuf: Optional["Buffer"],
                     blocks: int = 1) -> None:
    """Reject a bad reduction on every rank before its first message.

    ``sendbuf`` holds ``blocks`` x ``count`` elements, ``recvbuf``
    ``count``; they may be the same range (in place) but not overlap
    otherwise: the fold would overwrite input it has yet to send.
    """
    if op not in OPS:
        raise ValueError(f"unknown reduction op {op!r}")
    nbytes = count * datatype.size
    for name, buf, need in (("sendbuf", sendbuf, blocks * nbytes),
                            ("recvbuf", recvbuf, nbytes)):
        if buf is not None and not 0 <= need <= buf.nbytes:
            raise MPIError(f"{name} of {buf.nbytes} B cannot hold {need} B "
                           f"(count={count}, {datatype.size} B each)")
    if recvbuf is not None and recvbuf.space is sendbuf.space:
        lo, rlo = sendbuf.base, recvbuf.base
        if (lo < rlo + nbytes and rlo < lo + blocks * nbytes
                and (lo != rlo or blocks > 1)):
            raise MPIError(f"sendbuf at {lo} and recvbuf at {rlo} overlap "
                           f"without being the same {nbytes} B")


def _member_reduce(comm: "Communicator", sendbuf: "Buffer",
                   acc: Optional["Buffer"], nbytes: int,
                   members: Sequence[int], root: int, op: str,
                   datatype: BasicType, tag: int):
    """Binomial reduction of ``sendbuf`` over ``members`` to ``root``.

    A rank without children (odd position, or last of an odd count: half
    of all ranks) sends ``sendbuf`` as it is and allocates nothing.  A
    rank with children borrows one receive scratch, folds each child in
    place into its accumulator and sends that on: ``acc`` — memory the
    caller lets it overwrite, required on the root, where the reduction
    ends up — or, given none, a second borrowed scratch.
    """
    m = len(members)
    root_idx = members.index(root)
    relative = (members.index(comm.rank) - root_idx) % m
    inner = not relative & 1 and relative + 1 < m
    scratch = comm.alloc_scratch(nbytes) if inner else None
    own = comm.alloc_scratch(nbytes) if inner and acc is None else None
    try:
        out = sendbuf
        if inner or relative == 0:
            out = acc if acc is not None else own
            if (out.space, out.base) != (sendbuf.space, sendbuf.base):
                out.write(sendbuf.read(0, nbytes))
        mask = 1
        while mask < m:
            if relative & mask:
                parent = members[((relative & ~mask) + root_idx) % m]
                yield from comm.send(out, parent, tag=tag,
                                     datatype=BYTE, count=nbytes)
                break
            child_rel = relative | mask
            if child_rel < m:
                child = members[(child_rel + root_idx) % m]
                yield from comm.recv(scratch, source=child, tag=tag,
                                     datatype=BYTE, count=nbytes)
                total = out.read(0, nbytes).view(datatype.np_dtype)
                OPS[op](total, scratch.read(0, nbytes).view(datatype.np_dtype),
                        out=total)
            mask <<= 1
    finally:
        comm.free_scratch(scratch, own)


def _bcast_hier(comm: "Communicator", buf: "Buffer", root: int, datatype,
                count: Optional[int], total: int, groups: Sequence[Sequence[int]]):
    """Hierarchical broadcast: root -> group leaders -> ringlet-local.

    The cross-switch stage moves one message per ringlet over the scarce
    crossbar/spine links (chunk-pipelined when the payload warrants it);
    each leader then fans out inside its own ringlet.
    """
    rank = comm.rank
    my_group = next(g for g in groups if rank in g)
    root_group = next(g for g in groups if root in g)
    # The root speaks for its own group on the cross-switch stage.
    leaders = [root if g is root_group else g[0] for g in groups]
    if rank in leaders:
        chunk = comm.device.policy.cross_switch_chunk(total)
        yield from _member_bcast(comm, buf, leaders, root, COLL_TAG + 9,
                                 datatype=datatype, count=count,
                                 chunk=chunk, total=total)
    my_leader = leaders[groups.index(my_group)]
    yield from _member_bcast(comm, buf, my_group, my_leader, COLL_TAG + 10,
                             datatype=datatype, count=count)


def bcast(comm: "Communicator", buf: "Buffer", root: int = 0,
          datatype=None, count: Optional[int] = None):
    """Broadcast: binomial tree, a chain-pipelined segment stream when
    the transfer policy asks for chunking, or the hierarchical algorithm
    on multi-ringlet topologies."""
    size = comm.size
    if size == 1:
        return
        yield  # pragma: no cover - generator marker
    dtype, rcount, total, chunk = _collective_chunk(comm, buf, datatype, count)
    groups = _hier_groups(comm, "bcast", total) if total > 0 else None
    if groups is not None:
        yield from _bcast_hier(comm, buf, root, dtype, rcount, total, groups)
        return
    if chunk is not None:
        yield from _bcast_chained(comm, buf, root, dtype, rcount, total, chunk)
        return
    rank = comm.rank
    relative = (rank - root) % size
    # Climb masks until our lowest set bit: that's where our parent is.
    mask = 1
    while mask < size:
        if relative & mask:
            parent = ((relative & ~mask) + root) % size
            yield from comm.recv(buf, source=parent, tag=COLL_TAG + 2,
                                 datatype=datatype, count=count)
            break
        mask <<= 1
    # Forward to children below the bit where we received.
    mask >>= 1
    while mask > 0:
        child_rel = relative | mask
        if child_rel != relative and child_rel < size:
            child = (child_rel + root) % size
            yield from comm.send(buf, child, tag=COLL_TAG + 2,
                                 datatype=datatype, count=count)
        mask >>= 1


def _bcast_chained(comm: "Communicator", buf: "Buffer", root: int,
                   datatype, count: int, total: int, chunk: int):
    """Chain-pipelined chunked broadcast.

    Ranks form a chain starting at the root; each rank receives segment
    ``k`` of the packed stream from its predecessor while its forward of
    segment ``k - 1`` to the successor is still in flight (one
    outstanding send — the transport-level analogue of the rendezvous
    handshake cycle, but across ranks).  Segments travel as
    ``segment=(offset, nbytes)`` sends: the packing plan packs each range
    straight out of (and unpacks straight into) user memory.
    """
    size, rank = comm.size, comm.rank
    relative = (rank - root) % size
    prev = (rank - 1) % size
    nxt = (rank + 1) % size
    pending = None
    pos = 0
    while pos < total:
        n = min(chunk, total - pos)
        seg = (pos, n)
        if relative != 0:
            yield from comm.recv(buf, source=prev, tag=COLL_TAG + 2,
                                 datatype=datatype, count=count, segment=seg)
        if relative != size - 1:
            if pending is not None:
                yield from pending.wait()
            pending = comm.isend(buf, nxt, tag=COLL_TAG + 2,
                                 datatype=datatype, count=count, segment=seg)
        pos += n
    if pending is not None:
        yield from pending.wait()


def reduce(comm: "Communicator", sendbuf: "Buffer", recvbuf: Optional["Buffer"],
           root: int = 0, op: str = "sum", datatype: BasicType = DOUBLE,
           count: Optional[int] = None):
    """Binomial-tree reduction to ``root`` (into its ``sendbuf`` when it
    passes no ``recvbuf``)."""
    if count is None:
        count = sendbuf.nbytes // datatype.size
    _check_reduction(op, datatype, count, sendbuf, recvbuf)
    acc = None
    if comm.rank == root:
        acc = recvbuf if recvbuf is not None else sendbuf
    yield from _member_reduce(comm, sendbuf, acc, count * datatype.size,
                              range(comm.size), root, op, datatype,
                              COLL_TAG + 3)


def _allreduce_hier(comm: "Communicator", sendbuf: "Buffer",
                    recvbuf: "Buffer", op: str, datatype: BasicType,
                    nbytes: int, groups: Sequence[Sequence[int]]):
    """Hierarchical allreduce: ringlet-local reduce, leader exchange,
    ringlet-local bcast.

    Each ringlet reduces to its leader without touching a cross-switch
    link; leaders then allreduce among themselves (one payload per
    ringlet across the crossbar, chunk-pipelined when large) and fan the
    result back out locally.  ``recvbuf`` is the accumulator of every
    stage: it is output on every rank.
    """
    rank = comm.rank
    my_group = next(g for g in groups if rank in g)
    leader = my_group[0]
    leaders = [g[0] for g in groups]
    yield from _member_reduce(comm, sendbuf, recvbuf, nbytes, my_group,
                              leader, op, datatype, COLL_TAG + 8)
    if rank == leader:
        yield from _member_reduce(comm, recvbuf, recvbuf, nbytes, leaders,
                                  leaders[0], op, datatype, COLL_TAG + 9)
        chunk = comm.device.policy.cross_switch_chunk(nbytes)
        yield from _member_bcast(comm, recvbuf, leaders, leaders[0],
                                 COLL_TAG + 9, datatype=BYTE, count=nbytes,
                                 chunk=chunk, total=nbytes)
    yield from _member_bcast(comm, recvbuf, my_group, leader, COLL_TAG + 10,
                             datatype=BYTE, count=nbytes)


def allreduce(comm: "Communicator", sendbuf: "Buffer", recvbuf: "Buffer",
              op: str = "sum", datatype: BasicType = DOUBLE,
              count: Optional[int] = None):
    """Reduce to rank 0 then broadcast; hierarchical on multi-ringlet
    topologies (see :func:`_allreduce_hier`)."""
    if count is None:
        count = sendbuf.nbytes // datatype.size
    _check_reduction(op, datatype, count, sendbuf, recvbuf)
    nbytes = count * datatype.size
    groups = _hier_groups(comm, "allreduce", nbytes)
    if groups is not None:
        yield from _allreduce_hier(comm, sendbuf, recvbuf, op, datatype,
                                   nbytes, groups)
        return
    yield from _member_reduce(comm, sendbuf, recvbuf, nbytes,
                              range(comm.size), 0, op, datatype, COLL_TAG + 3)
    yield from bcast(comm, recvbuf, root=0, datatype=BYTE, count=nbytes)


def gather(comm: "Communicator", sendbuf: "Buffer", recvbuf: Optional["Buffer"],
           root: int = 0, count: Optional[int] = None):
    """Linear gather of equal-sized contributions (bytes)."""
    n = count if count is not None else sendbuf.nbytes
    if comm.rank == root:
        assert recvbuf is not None and recvbuf.nbytes >= n * comm.size
        recvbuf.write(sendbuf.read(0, n), offset=comm.rank * n)
        for peer in range(comm.size):
            if peer == root:
                continue
            part = recvbuf.slice(peer * n, n)
            yield from comm.recv(part, source=peer, tag=COLL_TAG + 4)
    else:
        yield from comm.send(sendbuf.slice(0, n), root, tag=COLL_TAG + 4)


def scatter(comm: "Communicator", sendbuf: Optional["Buffer"], recvbuf: "Buffer",
            root: int = 0, count: Optional[int] = None):
    """Linear scatter of equal-sized pieces (bytes)."""
    n = count if count is not None else recvbuf.nbytes
    if comm.rank == root:
        assert sendbuf is not None and sendbuf.nbytes >= n * comm.size
        recvbuf.write(sendbuf.read(root * n, n))
        for peer in range(comm.size):
            if peer == root:
                continue
            yield from comm.send(sendbuf.slice(peer * n, n), peer,
                                 tag=COLL_TAG + 6)
    else:
        yield from comm.recv(recvbuf, source=root, tag=COLL_TAG + 6)


def alltoall(comm: "Communicator", sendbuf: "Buffer", recvbuf: "Buffer",
             count: Optional[int] = None):
    """Pairwise-exchange all-to-all of equal-sized pieces (bytes).

    Round k: exchange with partner ``rank XOR k``-style shifted peer; the
    classic pairwise algorithm for full exchanges.
    """
    size, rank = comm.size, comm.rank
    n = count if count is not None else sendbuf.nbytes // size
    recvbuf.write(sendbuf.read(rank * n, n), offset=rank * n)
    if size == 1:
        return
        yield  # pragma: no cover - generator marker
    for step in range(1, size):
        dst = (rank + step) % size
        src = (rank - step) % size
        yield from comm.sendrecv(
            sendbuf.slice(dst * n, n), dst,
            recvbuf.slice(src * n, n), src,
            sendtag=COLL_TAG + 7, recvtag=COLL_TAG + 7,
        )


def reduce_scatter_block(comm: "Communicator", sendbuf: "Buffer",
                         recvbuf: "Buffer", op: str = "sum",
                         datatype: BasicType = DOUBLE,
                         count: Optional[int] = None):
    """Reduce then scatter equal blocks (MPI_Reduce_scatter_block)."""
    if count is None:
        count = recvbuf.nbytes // datatype.size
    _check_reduction(op, datatype, count, sendbuf, recvbuf, blocks=comm.size)
    total = count * comm.size
    scratch = (comm.alloc_scratch(total * datatype.size)
               if comm.rank == 0 else None)
    try:
        yield from reduce(comm, sendbuf, scratch, root=0, op=op,
                          datatype=datatype, count=total)
        yield from scatter(comm, scratch, recvbuf, root=0,
                           count=count * datatype.size)
    finally:
        comm.free_scratch(scratch)


def allgather(comm: "Communicator", sendbuf: "Buffer", recvbuf: "Buffer",
              count: Optional[int] = None):
    """Ring allgather of equal-sized contributions (bytes)."""
    n = count if count is not None else sendbuf.nbytes
    size, rank = comm.size, comm.rank
    recvbuf.write(sendbuf.read(0, n), offset=rank * n)
    if size == 1:
        return
        yield  # pragma: no cover - generator marker
    right = (rank + 1) % size
    left = (rank - 1) % size
    current = rank
    for _ in range(size - 1):
        chunk = recvbuf.slice(current * n, n)
        req = comm.isend(chunk, right, tag=COLL_TAG + 5)
        incoming = (current - 1) % size
        yield from comm.recv(recvbuf.slice(incoming * n, n), source=left,
                             tag=COLL_TAG + 5)
        yield from req.wait()
        current = incoming
