"""Collective operations built on the point-to-point device.

Classic algorithms — binomial trees or chains for bcast/reduce, a
dissemination barrier, a ring allgather, a pairwise alltoall — that
support the examples and benchmarks (the paper's focus is pt2pt
datatypes and one-sided); every payload byte moves through the
transport layer's scheduler.

One body, :func:`_stage`, issues every broadcast and reduction message,
flat or in any hierarchical stage.  Each stage is a binomial tree or a
chain, the cheaper in rendezvous cycles (:func:`_stage_cycles`), unless
the world's :class:`~repro.mpi.transport.policy.TransferPolicy` forces
one (its ``"coll"`` verdict).  A chain hop is one rendezvous
message that each member forwards chunk by chunk as the chunks land in
its buffer, on a reduction's way to the root folded into its own first.

On switched multi-ringlet fabrics (a
:class:`~repro.hardware.sci.topology.Topology` with more than one
locality domain) ``bcast`` and ``allreduce`` run *hierarchically* when
``policy.hierarchical_collective`` approves: ranks aggregate within
their ringlet, group leaders exchange across the switch (one message
per ringlet on the scarce crossbar links) and fan the result back out
ringlet-locally.  The plain ring always takes the flat algorithms.

All functions are DES generators taking the caller's Communicator; they
reject a buffer too small for their blocks with
:class:`~repro.mpi.errors.MPIError` before the first message.
Reductions receive straight into the accumulator, folding every
element once as it lands — ``recvbuf`` where it is output, else scratch
borrowed from the rank's free list and handed back — and a rank that
receives nothing sends ``sendbuf`` itself.  Aliasing user memory across
yields is safe: a blocking collective owns its buffers until it returns,
and no other rank holds a handle to private memory (docs/PROTOCOLS.md,
"What a collective allocates").
"""

from __future__ import annotations

from functools import partial
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


def op_folds(op: str, np_dtype) -> bool:
    """Does ``OPS[op]`` fold ``np_dtype`` elements: a ``(T, T) -> T`` loop?
    The bitwise ops have none for floating point."""
    char = np.dtype(np_dtype).char
    return f"{char}{char}->{char}" in getattr(OPS.get(op), "types", ())


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


def _hier_groups(comm: "Communicator") -> Optional[tuple[tuple[int, ...], ...]]:
    """The locality groups if bcast / allreduce should run hierarchically."""
    groups = _topology_groups(comm)
    if groups is None or not comm.device.policy.hierarchical_collective(
            comm.size, len(groups)):
        return None
    return groups


#: A stage's candidates: the tree first, so ties keep it.
_ALGORITHMS = ("tree", "chain")


def _stage_cycles(total: int, members: int, chunk: int, algorithm: str) -> int:
    """A stage's price in rendezvous cycles of ``chunk`` bytes: a chain's
    last member holds ``total`` after ``members - 2 + chunks`` cycles, a
    tree's after ``ceil(log2 members) x chunks``."""
    chunks = -(-total // chunk)
    return members - 2 + chunks if algorithm == "chain" else (members - 1).bit_length() * chunks


def _peers(comm: "Communicator", members: Sequence[int], root: int,
           total: int, flat: bool, reduction: bool):
    """``(chain, sources, dests)`` of this member in a stage of ``total``
    bytes over ``members`` (comm-local ranks), away from ``root`` or, as a
    ``reduction``, towards it: the world ranks it receives from and sends
    to, in order.  Given three members and more than one rendezvous
    chunk, the stage chains if its ``"coll"`` verdict says so: along
    the ring from the root, or from the member after the root round to
    it.  A binomial tree's children are ``relative + mask`` for each mask
    below the member's lowest set bit: a reduction folds them nearest
    first, a broadcast serves them farthest first."""
    m, chunk = len(members), comm.device.config.rendezvous_chunk
    idx, root = members.index(comm.rank), members.index(root)
    scheduler, key = comm.device.scheduler, ("coll", flat, reduction, total, m)
    chain = m > 2 and total > chunk and scheduler.cheapest(
        key, _ALGORITHMS, partial(_stage_cycles, total, m, chunk)) == "chain"
    if chain:
        place = (idx - root - reduction) % m
        sources = [idx - 1] if place else []
        dests = [idx + 1] if place < m - 1 else []
    else:
        relative = (idx - root) % m
        low = relative & -relative or 1 << m.bit_length()
        kids = [idx + (1 << bit) for bit in range(low.bit_length() - 1)
                if relative + (1 << bit) < m]
        parent = [idx - low] if relative else []
        sources, dests = (kids, parent) if reduction else (parent, kids[::-1])
    return (chain, [comm.group[members[i % m]] for i in sources],
            [comm.group[members[i % m]] for i in dests])


def _stage(comm: "Communicator", buf: "Buffer", peers, tag: int, datatype,
           count: Optional[int], fold=None):
    """The one body that moves a broadcast's or a reduction's bytes: from
    the :func:`_peers` sources into ``buf`` (folded, given a ``fold``),
    then on to their destinations.  A chain member between both forwards
    (``RankDevice.forward``): one message per hop, whose chunk ``k``
    crosses hop ``i + 1`` while chunk ``k + 1`` crosses hop ``i``."""
    (chain, sources, dests), device = peers, comm.device
    if chain and sources and dests:
        yield from device.forward(buf, *sources, *dests, tag, datatype, count,
                                  comm.context, fold=fold)
        return
    for source in sources:
        yield from device.recv(buf, source, tag, datatype, count, comm.context,
                               fold=fold)
    for dest in dests:
        yield from device.send(buf, dest, tag, datatype, count, comm.context)


def _member_bcast(comm: "Communicator", buf: "Buffer", members: Sequence[int],
                  root: int, tag: int, datatype, count: Optional[int],
                  total: int, flat: bool = False):
    """A broadcast stage over ``members`` from ``root`` (its generator)."""
    return _stage(comm, buf, _peers(comm, members, root, total, flat, False),
                  tag, datatype, count)


def _bcast(comm: "Communicator", buf: "Buffer", root: int, datatype,
           count: Optional[int], total: int,
           groups: Optional[Sequence[Sequence[int]]]):
    """Broadcast ``total`` packed bytes from ``root``: flat over every
    rank, or, given locality ``groups``, root -> group leaders across the
    switch (one message per ringlet) -> ringlet-local.  Each stage is
    one :func:`_member_bcast`, tree or chain by its own verdict."""
    if groups is None:
        yield from _member_bcast(comm, buf, range(comm.size), root,
                                 COLL_TAG + 2, datatype, count, total,
                                 flat=True)
        return
    rank = comm.rank
    my_group = next(g for g in groups if rank in g)
    root_group = next(g for g in groups if root in g)
    # The root speaks for its own group on the cross-switch stage.
    leaders = [root if g is root_group else g[0] for g in groups]
    if rank in leaders:
        yield from _member_bcast(comm, buf, leaders, root, COLL_TAG + 9,
                                 datatype, count, total)
    yield from _member_bcast(comm, buf, my_group,
                             leaders[groups.index(my_group)], COLL_TAG + 10,
                             datatype, count, total)


def _check_holds(name: str, buf: Optional["Buffer"], need: int,
                 what: str) -> None:
    """Reject ``buf`` unless it is given and holds ``need`` bytes."""
    if buf is None:
        raise MPIError(f"{name} is required ({what})")
    if not 0 <= need <= buf.nbytes:
        raise MPIError(f"{name} of {buf.nbytes} B cannot hold {need} B ({what})")


def _check_reduction(op: str, datatype: BasicType, count: int,
                     sendbuf: "Buffer", recvbuf: Optional["Buffer"],
                     blocks: int = 1) -> None:
    """Reject a bad reduction on every rank before its first message.

    ``sendbuf`` holds ``blocks`` x ``count`` elements, ``recvbuf``
    ``count``; they may be the same range (in place) but not overlap
    otherwise: the fold would overwrite input it has yet to send.
    """
    if not op_folds(op, datatype.np_dtype):
        raise ValueError(f"reduction op {op!r} is not defined on {datatype.name}")
    nbytes = count * datatype.size
    what = f"count={count}, {datatype.size} B each"
    _check_holds("sendbuf", sendbuf, blocks * nbytes, what)
    if recvbuf is None:
        return
    _check_holds("recvbuf", recvbuf, nbytes, what)
    if recvbuf.space is sendbuf.space:
        lo, rlo = sendbuf.base, recvbuf.base
        if (lo < rlo + nbytes and rlo < lo + blocks * nbytes
                and (lo != rlo or blocks > 1)):
            raise MPIError(f"sendbuf at {lo} and recvbuf at {rlo} overlap "
                           f"without being the same {nbytes} B")


def _member_reduce(comm: "Communicator", sendbuf: "Buffer",
                   acc: Optional["Buffer"], nbytes: int,
                   members: Sequence[int], root: int, op: str,
                   datatype: BasicType, tag: int, flat: bool = False):
    """A reduction stage of ``sendbuf`` over ``members`` to ``root``.  A
    rank that receives nothing (a tree's odd position or the last of an
    odd count; the chain's head) sends ``sendbuf`` as it is.  Every other
    rank copies ``sendbuf`` into its accumulator, folds what it receives
    into that as it lands and sends it on: ``acc`` — memory the caller
    lets it overwrite, required on the root, where the reduction ends up
    — or, given none, one borrowed scratch."""
    peers = _peers(comm, members, root, nbytes, flat, True)
    folds = bool(peers[1]) or comm.rank == root
    own = comm.alloc_scratch(nbytes) if folds and acc is None else None
    out = sendbuf if not folds else acc if acc is not None else own
    try:
        if (out.space, out.base) != (sendbuf.space, sendbuf.base):
            out.write(sendbuf.read(0, nbytes))
        yield from _stage(comm, out, peers, tag, BYTE, nbytes,
                          (OPS[op], datatype.np_dtype))
    finally:
        comm.free_scratch(own)


def bcast(comm: "Communicator", buf: "Buffer", root: int = 0,
          datatype=None, count: Optional[int] = None):
    """Broadcast: a binomial tree or a chain of forwarding ranks, flat or
    by the hierarchical algorithm on multi-ringlet topologies (see
    :func:`_bcast`)."""
    if comm.size == 1:
        return
        yield  # pragma: no cover - generator marker
    dtype = datatype if datatype is not None else BYTE
    dtype.commit()
    if count is None and dtype.is_contiguous and dtype.size:
        count = buf.nbytes // dtype.size
    # Without a count a non-contiguous type is comm.send's to reject.
    total = 0 if count is None else dtype.flattened.size * count
    groups = _hier_groups(comm) if total > 0 else None
    yield from _bcast(comm, buf, root, dtype, count, total, groups)


def reduce(comm: "Communicator", sendbuf: "Buffer", recvbuf: Optional["Buffer"],
           root: int = 0, op: str = "sum", datatype: BasicType = DOUBLE,
           count: Optional[int] = None):
    """Reduction to ``root``, a binomial tree or a chain of folding
    ranks (into its ``sendbuf`` when it passes no ``recvbuf``)."""
    if count is None:
        count = sendbuf.nbytes // datatype.size
    _check_reduction(op, datatype, count, sendbuf, recvbuf)
    acc = None
    if comm.rank == root:
        acc = recvbuf if recvbuf is not None else sendbuf
    yield from _member_reduce(comm, sendbuf, acc, count * datatype.size,
                              range(comm.size), root, op, datatype,
                              COLL_TAG + 3, flat=True)


def allreduce(comm: "Communicator", sendbuf: "Buffer", recvbuf: "Buffer",
              op: str = "sum", datatype: BasicType = DOUBLE,
              count: Optional[int] = None):
    """Reduce, then broadcast from the reduce root (see :func:`_bcast`).

    Flat: a reduce over every rank to rank 0.  On multi-ringlet
    topologies each ringlet reduces to its first rank without touching a
    cross-switch link, and those leaders reduce to the first group's
    (one payload per ringlet across the crossbar).  Each stage is a tree
    or a chain by its own verdict.  ``recvbuf`` is the accumulator of
    every stage: it is output on every rank.
    """
    if count is None:
        count = sendbuf.nbytes // datatype.size
    _check_reduction(op, datatype, count, sendbuf, recvbuf)
    nbytes = count * datatype.size
    groups = _hier_groups(comm)
    if groups is None:
        root = 0
        yield from _member_reduce(comm, sendbuf, recvbuf, nbytes,
                                  range(comm.size), root, op, datatype,
                                  COLL_TAG + 3, flat=True)
    else:
        my_group = next(g for g in groups if comm.rank in g)
        leaders = [g[0] for g in groups]
        root = leaders[0]
        yield from _member_reduce(comm, sendbuf, recvbuf, nbytes, my_group,
                                  my_group[0], op, datatype, COLL_TAG + 8)
        if comm.rank == my_group[0]:
            yield from _member_reduce(comm, recvbuf, recvbuf, nbytes, leaders,
                                      root, op, datatype, COLL_TAG + 9)
    yield from _bcast(comm, recvbuf, root, BYTE, nbytes, nbytes, groups)


def gather(comm: "Communicator", sendbuf: "Buffer", recvbuf: Optional["Buffer"],
           root: int = 0, count: Optional[int] = None):
    """Linear gather of equal-sized contributions (bytes)."""
    n = count if count is not None else sendbuf.nbytes
    what = f"count={n}, {comm.size} ranks"
    _check_holds("sendbuf", sendbuf, n, what)
    if comm.rank == root:
        _check_holds("recvbuf", recvbuf, n * comm.size, what)
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
    what = f"count={n}, {comm.size} ranks"
    _check_holds("recvbuf", recvbuf, n, what)
    if comm.rank == root:
        _check_holds("sendbuf", sendbuf, n * comm.size, what)
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
    """Pairwise-exchange all-to-all of equal-sized pieces (bytes): round
    ``k`` sends to ``rank + k`` and receives from ``rank - k``."""
    size, rank = comm.size, comm.rank
    n = count if count is not None else sendbuf.nbytes // size
    what = f"count={n}, {size} ranks"
    _check_holds("sendbuf", sendbuf, n * size, what)
    _check_holds("recvbuf", recvbuf, n * size, what)
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
    what = f"count={n}, {size} ranks"
    _check_holds("sendbuf", sendbuf, n, what)
    _check_holds("recvbuf", recvbuf, n * size, what)
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
