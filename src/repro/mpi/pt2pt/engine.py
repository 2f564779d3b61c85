"""The per-rank MPI device: short / eager / rendezvous protocols.

This mirrors the SCI-MPICH device architecture ([7], Sec. 2): every rank
exports packet buffers (control ring, eager slots, one rendezvous buffer);
senders write payloads *into the receiver's memory* with transparent PIO
stores and then post a control packet.  Three protocols by packed size:

* **short**  — payload inline in the control packet;
* **eager**  — payload into a pre-granted eager slot (credit flow control);
* **rendezvous** — handshake, then chunk-wise transfer through the
  receiver's rendezvous buffer with per-chunk credits ("handshake cycles",
  Sec. 3.3.2).

Non-contiguous datatypes take one of the Fig. 4 paths: *generic* (pack →
contiguous transfer → unpack) or *direct_pack_ff* (pack straight into the
remote buffer / unpack straight out of the local one).

Since the transport refactor, this module holds *protocol state and
matching* only: protocol/mode selection lives in
:class:`~repro.mpi.transport.policy.TransferPolicy` and every payload
byte moves through :class:`~repro.mpi.transport.scheduler.TransferScheduler`
/ :class:`~repro.mpi.transport.store.RemoteStore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from ...sim import Channel, Engine, Lock, Resource
from ...smi import SMIContext
from ..datatypes.base import Datatype
from ..errors import MPIError
from ..transport.policy import Protocol, TransferMode, TransferPolicy
from ..transport.scheduler import TransferScheduler
from .config import DEFAULT_PROTOCOL, ProtocolConfig
from .messages import (
    ANY_SOURCE,
    ANY_TAG,
    CreditReturn,
    EagerMsg,
    Envelope,
    MatchQueues,
    RndvRequest,
    ShortMsg,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...memlib import Buffer

__all__ = ["MPIWorld", "RankDevice", "Status", "TransferMode"]


@dataclass(frozen=True)
class Status:
    """Result of a completed receive (MPI_Status)."""

    source: int
    tag: int
    nbytes: int


class MPIWorld:
    """All per-rank devices plus shared configuration."""

    def __init__(self, smi: SMIContext, config: ProtocolConfig = DEFAULT_PROTOCOL,
                 policy: Optional[TransferPolicy] = None):
        self.smi = smi
        self.engine: Engine = smi.engine
        self.config = config
        #: The transport policy every device consults (pluggable; bound to
        #: this world's protocol config).
        self.policy = (policy or TransferPolicy(config)).bind(config)
        #: Locality groups of the collectives, by communicator group.
        self.locality_groups: dict[tuple[int, ...], Optional[tuple]] = {}
        self.devices = [RankDevice(self, rank) for rank in range(smi.n_ranks)]

    @property
    def n_ranks(self) -> int:
        return self.smi.n_ranks

    def device(self, rank: int) -> "RankDevice":
        return self.devices[rank]


class RankDevice:
    """One rank's communication engine."""

    def __init__(self, world: MPIWorld, rank: int):
        self.world = world
        self.rank = rank
        self.engine = world.engine
        self.smi = world.smi
        self.node = world.smi.node_of(rank)
        self.config = world.config
        self.policy = world.policy
        self.match = MatchQueues(self.engine)
        self.service: Channel = Channel(self.engine, name=f"svc-r{rank}")

        cfg = self.config
        n = world.smi.n_ranks
        #: Eager slots: per sender, ``eager_slots`` slots of eager_threshold.
        self.eager_region = world.smi.create_region(
            rank, n * cfg.eager_slots * cfg.eager_threshold, label=f"eager-r{rank}"
        )
        #: Rendezvous buffer: one chunk, exclusively owned during a transfer.
        self.rndv_region = world.smi.create_region(
            rank, cfg.rendezvous_chunk, label=f"rndv-r{rank}"
        )
        self.rndv_lock = Lock(self.engine, name=f"rndv-lock-r{rank}")
        #: Sender-side credit pools per destination, and free slot indices.
        self._eager_credits: dict[int, Resource] = {}
        self._eager_free: dict[int, list[int]] = {}
        #: Scratch the collectives borrowed and handed back.  Per rank, not a
        #: mark on the address space: the ranks of one node interleave there.
        self.free_scratch: list["Buffer"] = []
        #: Hook the OSC layer installs to serve emulation requests.
        self.osc_handler: Optional[Callable[[Any], Any]] = None
        #: Optional tracer (see repro.obs.trace.attach_tracer).
        self.tracer = None
        #: Perf counters.
        self.counters = {"sends": 0, "recvs": 0, "short": 0, "eager": 0, "rndv": 0}
        #: Recovery counters (nonzero only under an installed fault plan;
        #: see docs/FAULTS.md): chunk retransmits, torn-stream resumes,
        #: credit timeouts, segment remaps, strategy fallbacks, give-ups.
        self.recovery = {"retries": 0, "resumes": 0, "timeouts": 0,
                         "remaps": 0, "fallbacks": 0, "aborts": 0}
        #: The chunked data path (owns the RemoteStore and chunk stats).
        self.scheduler = TransferScheduler(self)
        self.store = self.scheduler.store

        self.engine.process(self._service_loop(), name=f"svc-r{rank}", daemon=True)

    def _trace(self, kind: str, **detail) -> None:
        if self.tracer is not None:
            self.tracer.record(self.engine.now, self.rank, kind, **detail)

    # -- plumbing ----------------------------------------------------------------

    def _service_loop(self):
        """The control-packet poll loop / interrupt handler of this rank."""
        while True:
            msg = yield self.service.get()
            yield self.engine.timeout(self.config.poll_latency)
            if isinstance(msg, (ShortMsg, EagerMsg, RndvRequest)):
                self.match.deliver(msg)
            elif isinstance(msg, CreditReturn):
                peer, slot = msg.slot_index
                self._eager_free[peer].append(slot)
                self._eager_credits[peer].release()
            elif self.osc_handler is not None:
                result = self.osc_handler(msg)
                if result is not None and hasattr(result, "send"):
                    yield from result
            else:
                raise MPIError(f"rank {self.rank}: unhandled control message {msg!r}")

    def _ctrl_cost(self, dst: int) -> float:
        if self.smi.same_node(self.rank, dst):
            return self.config.ctrl_send_cost_local
        return self.config.ctrl_send_cost

    def send_ctrl(self, dst: int, msg: Any, to_channel: Optional[Channel] = None):
        """Post a control packet to ``dst`` (its service queue by default).

        Control packets are remote writes too: the connection check here
        is the "connection monitoring and transfer checking" Sec. 2 calls
        for on a cable-based interconnect.
        """
        if not self.smi.same_node(self.rank, dst):
            src_node = self.node.node_id
            dst_node = self.smi.node_of(dst).node_id
            if not self.world.smi.fabric.ping(src_node, dst_node):
                from ...hardware.sci.fabric import SCIConnectionError

                raise SCIConnectionError(
                    f"control packet {self.rank}->{dst}: peer unreachable"
                )
        yield self.engine.timeout(self._ctrl_cost(dst))
        target = to_channel if to_channel is not None else self.world.device(dst).service
        target.try_put(msg)  # unbounded channel, nobody waits: no heap event

    def _eager_pool(self, dst: int) -> tuple[Resource, list[int]]:
        if dst not in self._eager_credits:
            self._eager_credits[dst] = Resource(
                self.engine, capacity=self.config.eager_slots, name=f"eager-{self.rank}->{dst}"
            )
            self._eager_free[dst] = list(range(self.config.eager_slots))
        return self._eager_credits[dst], self._eager_free[dst]

    # -- message geometry ------------------------------------------------------------

    @staticmethod
    def _resolve_segment(plan, segment: Optional[tuple[int, int]]) -> tuple[int, int]:
        """Validated ``(stream offset, nbytes)`` of the transfer."""
        if segment is None:
            return 0, plan.total
        seg_off, seg_len = segment
        if seg_off < 0 or seg_len < 0 or seg_off + seg_len > plan.total:
            raise MPIError(
                f"segment [{seg_off}, {seg_off + seg_len}) outside packed "
                f"stream of {plan.total} B"
            )
        return seg_off, seg_len

    def _message(self, buf: "Buffer", datatype: Optional[Datatype],
                 count: Optional[int], segment: Optional[tuple[int, int]]):
        """Common send/recv prologue: plan + stream segment geometry."""
        from ..datatypes.basic import BYTE

        dtype = datatype if datatype is not None else BYTE
        dtype.commit()
        ft = dtype.flattened
        if count is None:
            if not dtype.is_contiguous:
                raise MPIError("count is required for non-contiguous datatypes")
            count = buf.nbytes // dtype.size if dtype.size else 0
        plan = dtype.buffer_plan(buf, count)
        seg_off, total = self._resolve_segment(plan, segment)
        return dtype, ft, count, plan, seg_off, total

    # -- send ------------------------------------------------------------------------

    def send(self, buf: "Buffer", dest: int, tag: int = 0,
             datatype: Optional[Datatype] = None, count: Optional[int] = None,
             context: int = 0, sync: bool = False,
             segment: Optional[tuple[int, int]] = None):
        """Blocking send (DES generator).

        ``sync=True`` gives MPI_Ssend semantics: the call completes only
        once the receiver has matched the message.  ``segment`` restricts
        the transfer to a byte range of the packed stream (used by the
        chunked collectives; both sides must agree on the range).
        """
        if not 0 <= dest < self.world.n_ranks:
            raise MPIError(f"invalid destination rank {dest}")
        dtype, ft, count, plan, seg_off, total = self._message(
            buf, datatype, count, segment
        )
        mem = buf.space.mem
        base = buf.base
        self.counters["sends"] += 1
        yield self.engine.timeout(self.config.call_overhead)

        mode = self.policy.transfer_mode(dtype)
        env = Envelope(self.rank, tag, context)
        src_cached = self.policy.src_cached(total, self.node)
        sync_reply = Channel(self.engine, name="ssend-ack") if sync else None
        self._trace("send.begin", dest=dest, tag=tag, nbytes=total, mode=mode)

        scheduler = self.scheduler
        protocol = self.policy.protocol(total)
        if protocol == Protocol.SHORT:
            yield from scheduler.send_short(
                dest, env, mem, base, ft, plan, count, seg_off, total,
                dtype.is_contiguous, sync_reply,
            )
            self.counters["short"] += 1
        elif protocol == Protocol.EAGER:
            yield from scheduler.send_eager(
                dest, env, mem, base, ft, plan, count, seg_off, total, mode,
                src_cached, sync_reply,
            )
            self.counters["eager"] += 1
        else:
            # Rendezvous is inherently synchronous.
            yield from scheduler.send_rndv(
                dest, env, mem, base, ft, plan, count, seg_off, total, mode,
                src_cached,
            )
            self.counters["rndv"] += 1
            sync_reply = None
        if sync_reply is not None:
            yield sync_reply.get()
        self._trace("send.end", dest=dest, protocol=protocol, nbytes=total)

    # -- receive -----------------------------------------------------------------------

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              context: int = 0):
        """Blocking probe (DES generator); returns a Status without
        consuming the message (MPI_Probe)."""
        yield self.engine.timeout(self.config.call_overhead)
        msg = yield self.match.post_probe(source, tag, context)
        nbytes = (
            msg.data.nbytes if isinstance(msg, ShortMsg)
            else msg.nbytes
        )
        return Status(msg.envelope.source, msg.envelope.tag, nbytes)

    def recv(self, buf: "Buffer", source: int = ANY_SOURCE, tag: int = ANY_TAG,
             datatype: Optional[Datatype] = None, count: Optional[int] = None,
             context: int = 0, segment: Optional[tuple[int, int]] = None):
        """Blocking receive (DES generator); returns a Status."""
        dtype, ft, count, plan, seg_off, capacity = self._message(
            buf, datatype, count, segment
        )
        mem = buf.space.mem
        base = buf.base
        self.counters["recvs"] += 1
        self._trace("recv.begin", source=source, tag=tag)
        yield self.engine.timeout(self.config.call_overhead)

        msg = yield self.match.post(source, tag, context)
        self._trace("recv.matched", source=msg.envelope.source,
                    message=type(msg).__name__)
        mode = self.policy.transfer_mode(dtype)
        contiguous = dtype.is_contiguous
        scheduler = self.scheduler

        if isinstance(msg, ShortMsg):
            n = yield from scheduler.recv_short(
                msg, mem, base, ft, plan, count, seg_off, capacity, contiguous
            )
            self._trace("recv.end", source=msg.envelope.source,
                        protocol="short", nbytes=n)
            return Status(msg.envelope.source, msg.envelope.tag, n)

        if isinstance(msg, EagerMsg):
            n = yield from scheduler.recv_eager(
                msg, mem, base, ft, plan, count, seg_off, capacity, mode,
                contiguous,
            )
            self._trace("recv.end", source=msg.envelope.source,
                        protocol="eager", nbytes=n)
            return Status(msg.envelope.source, msg.envelope.tag, n)

        assert isinstance(msg, RndvRequest)
        total = yield from scheduler.recv_rndv(
            msg, mem, base, ft, plan, count, seg_off, capacity, mode, contiguous
        )
        self._trace("recv.end", source=msg.envelope.source,
                    protocol="rndv", nbytes=total)
        return Status(msg.envelope.source, msg.envelope.tag, total)
