"""The Communicator: each rank's handle to an MPI communication context.

The API mirrors mpi4py's buffer-protocol methods in spirit, adapted to the
simulation: communication calls are DES *generators* the rank's program
drives with ``yield from``::

    def program(ctx):
        comm = ctx.comm
        if comm.rank == 0:
            yield from comm.send(buf, dest=1, tag=7)
        else:
            status = yield from comm.recv(buf, source=0, tag=7)

Communicators carry an MPI *context id* so traffic on different
communicators never matches across, and may span a subset of the world
(``comm.split``).  Ranks in the public API are always communicator-local.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..memlib import Buffer
from .coll import collectives as _coll
from .datatypes.base import Datatype
from .errors import MPIError
from .pt2pt.engine import MPIWorld, Status
from .pt2pt.messages import ANY_SOURCE, ANY_TAG
from .request import PersistentRequest, Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .osc.window import Win

__all__ = ["Communicator", "ANY_SOURCE", "ANY_TAG", "Status"]


class Communicator:
    """Per-rank communicator over a group of world ranks.

    Collectives borrow their scratch memory through it from the device's
    free list (:meth:`alloc_scratch` / :meth:`free_scratch`), so a rank's
    footprint does not grow with the number of calls.
    """

    def __init__(self, world: MPIWorld, world_rank: int, context: int = 0,
                 group: Optional[Sequence[int]] = None):
        self.world = world
        self.context = context
        #: Communicator-local rank -> world rank.
        self.group: tuple[int, ...] = tuple(
            group if group is not None else range(world.n_ranks)
        )
        if world_rank not in self.group:
            raise MPIError(
                f"world rank {world_rank} is not part of this communicator"
            )
        self._world_rank = world_rank
        self._rank = self.group.index(world_rank)
        self.device = world.device(world_rank)
        self.engine = world.engine

    # -- identity ----------------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank *within this communicator*."""
        return self._rank

    @property
    def size(self) -> int:
        return len(self.group)

    @property
    def world_rank(self) -> int:
        return self._world_rank

    @property
    def node(self):
        return self.device.node

    def _to_world(self, rank: int) -> int:
        if rank in (ANY_SOURCE, ANY_TAG):
            return rank
        if not 0 <= rank < self.size:
            raise MPIError(f"rank {rank} outside communicator of size {self.size}")
        return self.group[rank]

    def _to_local(self, world_rank: int) -> int:
        return self.group.index(world_rank)

    def _localized(self, status: Status) -> Status:
        return Status(self._to_local(status.source), status.tag, status.nbytes)

    def alloc_scratch(self, nbytes: int) -> Buffer:
        """Borrow at least ``nbytes`` of private scratch on this rank's
        node — the smallest free buffer that fits, else a new allocation;
        hand it back with :meth:`free_scratch` in a ``finally``."""
        free = self.device.free_scratch
        fit = min((b for b in free if b.nbytes >= nbytes), key=len, default=None)
        if fit is None:
            return self.device.node.space.alloc(
                max(nbytes, 1), label=f"scratch-w{self._world_rank}")
        free.remove(fit)
        return fit

    def free_scratch(self, *bufs: Optional[Buffer]) -> None:
        """Return borrowed scratch (``None`` entries are skipped)."""
        self.device.free_scratch.extend(b for b in bufs if b is not None)

    # -- point-to-point -------------------------------------------------------------

    def send(self, buf: Buffer, dest: int, tag: int = 0,
             datatype: Optional[Datatype] = None, count: Optional[int] = None,
             segment: Optional[tuple[int, int]] = None):
        """Blocking standard-mode send (generator).

        ``segment=(offset, nbytes)`` restricts the transfer to a byte
        range of the packed stream (both sides must agree on the range).
        """
        return self.device.send(buf, self._to_world(dest), tag, datatype,
                                count, context=self.context, segment=segment)

    def ssend(self, buf: Buffer, dest: int, tag: int = 0,
              datatype: Optional[Datatype] = None, count: Optional[int] = None):
        """Blocking synchronous-mode send (completes on match; MPI_Ssend)."""
        return self.device.send(buf, self._to_world(dest), tag, datatype,
                                count, context=self.context, sync=True)

    def recv(self, buf: Buffer, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             datatype: Optional[Datatype] = None, count: Optional[int] = None,
             segment: Optional[tuple[int, int]] = None):
        """Blocking receive (generator); returns a Status (local source)."""
        status = yield from self.device.recv(
            buf, self._to_world(source), tag, datatype, count,
            context=self.context, segment=segment,
        )
        return self._localized(status)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking probe (generator); returns a Status without receiving."""
        status = yield from self.device.probe(
            self._to_world(source), tag, context=self.context
        )
        return self._localized(status)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Non-blocking probe; Status or None (MPI_Iprobe)."""
        msg = self.device.match.probe(self._to_world(source), tag, self.context)
        if msg is None:
            return None
        nbytes = msg.data.nbytes if hasattr(msg, "data") else msg.nbytes
        return Status(self._to_local(msg.envelope.source), msg.envelope.tag, nbytes)

    def isend(self, buf: Buffer, dest: int, tag: int = 0,
              datatype: Optional[Datatype] = None,
              count: Optional[int] = None,
              segment: Optional[tuple[int, int]] = None) -> Request:
        """Nonblocking send; returns a Request immediately."""
        proc = self.engine.process(
            self.device.send(buf, self._to_world(dest), tag, datatype, count,
                             context=self.context, segment=segment),
            name=f"isend-w{self._world_rank}->{dest}",
        )
        return Request(self.engine, proc)

    def irecv(self, buf: Buffer, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              datatype: Optional[Datatype] = None,
              count: Optional[int] = None,
              segment: Optional[tuple[int, int]] = None) -> Request:
        """Nonblocking receive; returns a Request immediately."""
        def body():
            status = yield from self.device.recv(
                buf, self._to_world(source), tag, datatype, count,
                context=self.context, segment=segment,
            )
            return self._localized(status)

        proc = self.engine.process(body(), name=f"irecv-w{self._world_rank}")
        return Request(self.engine, proc)

    def send_init(self, buf: Buffer, dest: int, tag: int = 0,
                  datatype: Optional[Datatype] = None,
                  count: Optional[int] = None) -> PersistentRequest:
        """Persistent send request (MPI_Send_init): call ``.start()``."""
        return PersistentRequest(
            self.engine,
            lambda: self.device.send(buf, self._to_world(dest), tag, datatype,
                                     count, context=self.context),
            name=f"psend-w{self._world_rank}->{dest}",
        )

    def recv_init(self, buf: Buffer, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                  datatype: Optional[Datatype] = None,
                  count: Optional[int] = None) -> PersistentRequest:
        """Persistent receive request (MPI_Recv_init)."""
        def body():
            status = yield from self.device.recv(
                buf, self._to_world(source), tag, datatype, count,
                context=self.context,
            )
            return self._localized(status)

        return PersistentRequest(self.engine, body,
                                 name=f"precv-w{self._world_rank}")

    def sendrecv(self, sendbuf: Buffer, dest: int, recvbuf: Buffer, source: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG,
                 send_datatype: Optional[Datatype] = None,
                 send_count: Optional[int] = None,
                 recv_datatype: Optional[Datatype] = None,
                 recv_count: Optional[int] = None):
        """Combined send+receive (deadlock-free); returns the recv Status."""
        req = self.isend(sendbuf, dest, sendtag, send_datatype, send_count)
        status = yield from self.recv(recvbuf, source, recvtag,
                                      recv_datatype, recv_count)
        yield from req.wait()
        return status

    # -- communicator management -----------------------------------------------------

    def split(self, color: int, key: int = 0):
        """Collective split into sub-communicators (generator; MPI_Comm_split).

        Every rank of this communicator must call it; ranks with the same
        ``color`` end up in one new communicator, ordered by ``key`` (ties
        broken by parent rank).  ``color=None`` returns None for that rank
        (MPI_UNDEFINED).
        """
        world = self.world
        if not hasattr(world, "_split_state"):
            world._split_state = {}
            world._context_counter = 1
        seq_key = (self.context, self.group)
        state = world._split_state.setdefault(
            seq_key, {"round": 0, "contrib": {}, "done": {}}
        )
        round_no = state["round"]
        state["contrib"].setdefault(round_no, {})[self.rank] = (color, key)
        # Everyone synchronizes; afterwards all contributions are present.
        yield from self.barrier()
        contrib = state["contrib"][round_no]
        if len(contrib) == len(self.group) and round_no not in state["done"]:
            state["done"][round_no] = True
            state["round"] = round_no + 1
        if color is None:
            return None
        members = sorted(
            (r for r, (c, _k) in contrib.items() if c == color),
            key=lambda r: (contrib[r][1], r),
        )
        # Deterministic context id: derived from parent context, round and
        # color — identical on every member rank.
        new_context = (
            (self.context + 1) * 1_000_003 + round_no * 1_009 + (color % 997) + 1
        )
        group = tuple(self.group[r] for r in members)
        return Communicator(world, self._world_rank, context=new_context,
                            group=group)

    def dup(self):
        """Collective duplicate with a fresh context (generator; MPI_Comm_dup)."""
        new_comm = yield from self.split(color=0, key=self.rank)
        return new_comm

    # -- collectives -------------------------------------------------------------------

    def barrier(self):
        return _coll.barrier(self)

    def bcast(self, buf: Buffer, root: int = 0,
              datatype: Optional[Datatype] = None, count: Optional[int] = None):
        return _coll.bcast(self, buf, root, datatype, count)

    def reduce(self, sendbuf: Buffer, recvbuf: Optional[Buffer] = None,
               root: int = 0, op: str = "sum", datatype=None,
               count: Optional[int] = None):
        from .datatypes.basic import DOUBLE

        return _coll.reduce(self, sendbuf, recvbuf, root, op,
                            datatype or DOUBLE, count)

    def allreduce(self, sendbuf: Buffer, recvbuf: Buffer, op: str = "sum",
                  datatype=None, count: Optional[int] = None):
        from .datatypes.basic import DOUBLE

        return _coll.allreduce(self, sendbuf, recvbuf, op,
                               datatype or DOUBLE, count)

    def gather(self, sendbuf: Buffer, recvbuf: Optional[Buffer] = None,
               root: int = 0, count: Optional[int] = None):
        return _coll.gather(self, sendbuf, recvbuf, root, count)

    def allgather(self, sendbuf: Buffer, recvbuf: Buffer,
                  count: Optional[int] = None):
        return _coll.allgather(self, sendbuf, recvbuf, count)

    def scatter(self, sendbuf: Optional[Buffer], recvbuf: Buffer,
                root: int = 0, count: Optional[int] = None):
        return _coll.scatter(self, sendbuf, recvbuf, root, count)

    def alltoall(self, sendbuf: Buffer, recvbuf: Buffer,
                 count: Optional[int] = None):
        return _coll.alltoall(self, sendbuf, recvbuf, count)

    def reduce_scatter_block(self, sendbuf: Buffer, recvbuf: Buffer,
                             op: str = "sum", datatype=None,
                             count: Optional[int] = None):
        from .datatypes.basic import DOUBLE

        return _coll.reduce_scatter_block(self, sendbuf, recvbuf, op,
                                          datatype or DOUBLE, count)

    # -- one-sided ---------------------------------------------------------------------

    def win_create(self, size_bytes: int, shared: bool = True) -> "Win":
        """Collective window creation (generator); see repro.mpi.osc.

        ``shared=True`` allocates the window from SCI shared memory (the
        MPI_Alloc_mem path — direct remote access); ``shared=False`` uses
        private process memory (accesses are emulated via the remote
        handler, paper Sec. 4.2).
        """
        from .osc.window import win_create

        return win_create(self, size_bytes, shared)

    def __repr__(self) -> str:
        return (
            f"<Communicator rank={self._rank}/{self.size} "
            f"context={self.context}>"
        )
