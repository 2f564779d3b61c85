"""TransferScheduler: streams packing-plan runs through bounded buffers.

This is the chunked data path of the unified transport layer.  Whatever
the communication mode — a pt2pt send, a one-sided response, a collective
segment — the bytes of a message are described by a
:class:`~repro.mpi.flatten.plan.PackPlan` (coalesced run tables over the
packed stream) and streamed through bounded SCI packet buffers with
credit-based flow control:

* **short** — payload inline in the control packet;
* **eager** — payload into a pre-granted eager slot (credit window of
  ``eager_slots`` per sender/receiver pair);
* **rendezvous** — handshake, then chunk-wise streaming through the
  receiver's rendezvous buffer, one credit per chunk ("handshake
  cycles", Sec. 3.3.2).

All protocol bodies take a *stream segment* ``(seg_off, total)``: the
byte range of the packed stream they move.  Whole-message transfers use
``(0, plan.total)``; chunked collectives hand in sub-ranges, which makes
plan-aware segmentation free — each segment packs straight out of (and
unpacks straight into) user memory via the plan's prefix-sum range
lookup, with no staging copy.

The scheduler also keeps the per-chunk cost accounting (``stats``): how
many packet-buffer chunks, payload bytes and simulated microseconds this
rank's transfers consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ...hardware.sci.fabric import SCIConnectionError
from ...hardware.sci.segments import SegmentUnmappedError
from ...sim import Channel
from ..errors import MessageTruncated, TransferAborted
from ..pt2pt.costs import (
    contiguous_remote_chunk_duration,
    direct_remote_chunk_duration,
    local_chunk_copy_cost,
    pack_cost_direct,
    pack_cost_generic,
)
from ..pt2pt.messages import CreditReturn, EagerMsg, RndvRequest, ShortMsg
from ...qos.lanes import LANE_RESERVED
from . import fastpath
from .fastpath import CostTable, RecvWindowCosts, StreamWindow
from .policy import TransferMode
from .store import RemoteStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..flatten import FlattenedType, PackPlan
    from ..pt2pt.engine import RankDevice

__all__ = ["ChunkCredit", "ChunkReady", "RndvAck", "TransferScheduler"]


@dataclass
class RndvAck:
    """Receiver's answer to a rendezvous request."""

    chunk_channel: Channel
    region: Any  # the receiver's rendezvous SharedRegion
    chunk_size: int
    #: Receiver-side stream-window support (``None`` = event path only).
    window: Optional[RecvWindowCosts] = None


@dataclass
class ChunkReady:
    index: int
    nbytes: int
    last: bool


@dataclass
class ChunkCredit:
    index: int


class TransferScheduler:
    """One rank's chunked data path over the :class:`RemoteStore`."""

    def __init__(self, device: "RankDevice"):
        self.device = device
        self.store = RemoteStore(device)
        #: Per-chunk cost accounting: every packet-buffer write this rank
        #: issued, by count / bytes / simulated time.
        self.stats = {"chunks": 0, "chunk_bytes": 0, "chunk_time": 0.0}
        #: Memoized per-chunk transaction costs (see ``docs/ENGINE.md``).
        self.costs = CostTable()
        #: Closed-form window counters: engaged windows and the chunks
        #: they collapsed (sender side).
        self.fastpath = {"windows": 0, "window_chunks": 0}

    # -- memoized chunk costs (fast path: cost tables) --------------------------------

    def _costed(self, key: tuple, build) -> float:
        """``build()``, memoized in the bounded cost table.

        The cached value is the exact float ``build`` returns — pure
        memoization, so simulated time never depends on the table.
        """
        if not fastpath.enabled:
            return build()
        return self.costs.lookup(key, build)

    def chunk_write_duration(self, mode: str, offset: int, nbytes: int,
                             groups: list[tuple[int, int]],
                             src_cached: bool) -> float:
        """Stand-alone duration of one remote chunk write, memoized by the
        offset's *alignment* (all the cost sees of it), not the offset."""
        device = self.device
        params = device.node.params
        align = offset % params.write_alignment
        if mode == TransferMode.DIRECT:
            return self._costed(
                ("direct", align, tuple(groups), src_cached),
                lambda: direct_remote_chunk_duration(
                    params, device.node.memory, offset, groups,
                    device.config, src_cached),
            )
        return self._costed(
            ("contig", align, nbytes, src_cached),
            lambda: contiguous_remote_chunk_duration(
                params, offset, nbytes, src_cached),
        )

    def chunk_pack_cost(self, groups: list[tuple[int, int]]) -> float:
        """direct_pack_ff loop cost of one chunk's blocks (memoized)."""
        return self._costed(
            ("pack", tuple(groups)),
            lambda: pack_cost_direct(self.device.node.memory, groups,
                                     self.device.config),
        )

    def chunk_copy_cost(self, nbytes: int) -> float:
        """Protocol-copy cost of one cache-cold chunk (memoized)."""
        return self._costed(
            ("copy", nbytes),
            lambda: local_chunk_copy_cost(self.device.node.memory, nbytes),
        )

    def chunk_drain_cost(self, mode: str, contiguous: bool, plan: "PackPlan",
                         pos: int, nbytes: int) -> float:
        """Receiver's cost of draining one packet-buffer chunk at stream
        position ``pos``: direct (and DMA) receivers unpack a
        non-contiguous type with the ff loop, everyone else pays a
        protocol copy."""
        if mode in (TransferMode.DIRECT, TransferMode.DMA) and not contiguous:
            return self.chunk_pack_cost(plan.groups_in_range(pos, nbytes))
        return self.chunk_copy_cost(nbytes)

    # -- grouping (the single chunk-group implementation) ---------------------------

    @staticmethod
    def chunk_groups(mode: str, plan: "PackPlan", pos: int,
                     nbytes: int) -> list[tuple[int, int]]:
        """``(block_len, n_blocks)`` groups of one chunk of the stream."""
        if mode == TransferMode.CONTIGUOUS:
            return [(nbytes, 1)]
        return plan.groups_in_range(pos, nbytes)

    @staticmethod
    def plan_groups(plan: "PackPlan") -> list[tuple[int, int]]:
        """Whole-plan block groups (what the generic traversal walks)."""
        return plan.ft.block_length_groups(plan.count)

    @staticmethod
    def message_groups(plan: "PackPlan", ft: "FlattenedType", count: int,
                       seg_off: int, total: int) -> list[tuple[int, int]]:
        """Block groups of a whole message (or of one stream segment).

        Whole messages use the flattened type's per-leaf grouping (what
        the generic recursive traversal walks); segments use the plan's
        coalesced range view.
        """
        if seg_off == 0 and total == plan.total:
            return ft.block_length_groups(count)
        return plan.groups_in_range(seg_off, total)

    # -- chunk write with accounting -------------------------------------------------

    def _write_chunk(self, dst: int, region, offset: int, data: np.ndarray,
                     mode: str, groups: list[tuple[int, int]],
                     src_cached: bool, plan: Optional["PackPlan"] = None,
                     stream_off: int = 0):
        """Deliver one packet-buffer chunk, recovering from injected faults.

        On a clean fabric this is a single :meth:`RemoteStore.write_packed`
        plus accounting.  Under a fault plan the write runs on the one
        recovery ladder (:meth:`RemoteStore.deliver_with_retry`):
        transient losses retransmit the chunk (bounded, with exponential
        backoff); torn transfers *resume* at the delivered byte —
        re-deriving the damaged tail's cost groups from the packing
        plan's range lookup (``plan``/``stream_off`` locate this chunk in
        the packed stream) — and a revoked packet-buffer mapping is
        re-imported for ``RecoveryPolicy.remap_cost``.
        """
        device = self.device
        engine = device.engine
        t0 = engine.now
        n = data.nbytes
        device._trace("chunk.write.begin", peer=dst, nbytes=n, mode=mode)
        pos = 0          # delivered bytes of this chunk
        writes = 0

        def attempt():
            nonlocal writes
            writes += 1
            if pos == 0:
                part, part_groups = data, groups
            elif plan is not None and mode == TransferMode.DIRECT:
                part = data[pos:]
                part_groups = plan.groups_in_range(stream_off + pos, n - pos)
            else:
                part = data[pos:]
                part_groups = [(n - pos, 1)]
            yield from self.store.write_packed(
                dst, region, offset + pos, part, mode, part_groups, src_cached)

        def resume(delivered: int) -> dict:
            # Torn mid-stream: the prefix landed; resume the remaining
            # byte range instead of the whole chunk.  Round the resume
            # point *down* to the adapter's stream window: a tail starting
            # mid-store-unit defeats write-combining for every store in it
            # (each becomes its own PCI/SCI transaction), which costs far
            # more than re-sending <64 intact bytes.
            nonlocal pos
            stream = device.node.params.adapter.stream_txn_size
            delivered += pos
            pos = max(delivered - (offset + delivered) % stream, 0)
            return {"delivered": pos, "nbytes": n}

        yield from self.store.deliver_with_retry(
            dst, attempt, on_unmap=lambda: region.remap(device.rank),
            on_torn=resume)
        self.stats["chunks"] += 1
        self.stats["chunk_bytes"] += n
        self.stats["chunk_time"] += engine.now - t0
        device._trace("chunk.write.end", peer=dst, nbytes=n,
                      retries=writes - 1)

    # -- credit waits with timeout ------------------------------------------------------

    def _await_credit(self, reply: Channel, dest: int):
        """Wait for the receiver's :class:`ChunkCredit`.

        On a clean fabric this is a plain channel get.  Under a fault plan
        the wait races a per-chunk timeout (``RecoveryPolicy.chunk_timeout``
        with exponential backoff): a stalled receiver trips the timeout,
        the sender probes the connection (the paper's Sec. 2 "connection
        monitoring") and keeps waiting — control packets and credits are
        never lost, only late, so re-waiting on the *same* pending get
        keeps credit accounting exact.  Gives up after
        ``max_retransmits`` consecutive timeouts.
        """
        device = self.device
        if device.world.smi.fabric.fault_plan is None:
            credit = yield reply.get()
            assert isinstance(credit, ChunkCredit)
            return credit
        engine = device.engine
        recovery = device.policy.recovery
        get_ev = reply.get()
        timeout = recovery.chunk_timeout
        yield engine.any_of([get_ev, engine.timeout(timeout)])
        attempt = 0
        while not get_ev.processed:
            attempt += 1
            if attempt > recovery.max_retransmits:
                device.recovery["aborts"] += 1
                raise TransferAborted(
                    f"no chunk credit from rank {dest} after "
                    f"{attempt - 1} timeout extensions"
                )
            device.recovery["timeouts"] += 1
            src_node = device.node.node_id
            dst_node = device.smi.node_of(dest).node_id
            if src_node != dst_node and not device.world.smi.fabric.ping(
                src_node, dst_node
            ):
                device.recovery["aborts"] += 1
                raise TransferAborted(
                    f"rank {dest} unreachable while awaiting chunk credit"
                )
            timeout *= recovery.backoff_factor
            device._trace("recover.retry.begin", peer=dest,
                          cause="credit-timeout", attempt=attempt)
            yield engine.any_of([get_ev, engine.timeout(timeout)])
            device._trace("recover.retry.end", peer=dest)
        credit = get_ev.value
        assert isinstance(credit, ChunkCredit)
        return credit

    # -- send protocols ---------------------------------------------------------------

    def send_short(self, dest, env, mem, base, ft, plan, count, seg_off,
                   total, contiguous, sync_reply):
        """Short protocol: pack inline (tiny either way) + one ctrl packet."""
        device = self.device
        # A copy even when contiguous: the ShortMsg outlives this send.
        payload = plan.execute_pack(mem, base, seg_off, total)
        if not contiguous:
            groups = self.message_groups(plan, ft, count, seg_off, total)
            yield device.engine.timeout(
                pack_cost_direct(device.node.memory, groups, device.config)
            )
        yield from device.send_ctrl(dest, ShortMsg(env, payload, sync_reply))

    def send_eager(self, dest, env, mem, base, ft, plan, count, seg_off,
                   total, mode, src_cached, sync_reply=None):
        """Eager protocol: one credited slot write + control packet."""
        device = self.device
        cfg = device.config
        if mode == TransferMode.DMA:
            # DMA setup dwarfs eager-sized messages; fall back to the
            # generic PIO path (what SCI-MPICH's DMA protocol does too).
            mode = TransferMode.GENERIC
        credits, free = device._eager_pool(dest)
        yield credits.request()
        slot = free.pop()
        peer_region = device.world.device(dest).eager_region
        slot_offset = (device.rank * cfg.eager_slots + slot) * cfg.eager_threshold

        if mode == TransferMode.GENERIC:
            groups = self.message_groups(plan, ft, count, seg_off, total)
            yield device.engine.timeout(
                pack_cost_generic(device.node.memory, groups, cfg)
            )
        data = plan.stream_view(mem, base, seg_off, total)
        groups = self.chunk_groups(mode, plan, seg_off, total)
        yield from self._write_chunk(
            dest, peer_region, slot_offset, data, mode, groups, src_cached,
            plan=plan, stream_off=seg_off,
        )
        yield from device.send_ctrl(
            dest, EagerMsg(env, slot_offset, data.nbytes, slot_index=slot,
                           sync_reply=sync_reply)
        )

    # -- closed-form stream windows (fast path: analytic replay) ----------------------

    def _window_size(self, ack: RndvAck, pos: int, total: int) -> int:
        """Chunks worth collapsing: every remaining *full* chunk except
        the stream's final chunk, which always runs event-stepped (it
        carries the ``last`` flag, may be partial, and closes the credit
        handshake naturally)."""
        chunk = ack.chunk_size
        remaining = total - pos
        full = remaining // chunk
        return full - 1 if remaining % chunk == 0 else full

    def _stream_window(self, dest, ack: RndvAck, mem, base, plan, packed,
                       mode, seg_off, pos, index, total, src_cached):
        """Collapse the steady-state tail of a rendezvous stream.

        When the engine is otherwise quiescent — no scheduled events, no
        concurrent flows, clean deterministic fabric — the next ``k``
        handshake cycles are a closed arithmetic form: per cycle the
        clock advances by hop latency, the exclusive flow delay, the
        sender's control cost, the receiver's drain cost and the
        receiver's credit cost, in that order.  This method replays that
        sequence analytically (bit-identical floats, identical per-link
        byte/peak accounting and, under a tracer, the event path's
        ``chunk.write`` spans and ``fabric.xfer`` records at the same
        instants), ships all ``k`` chunks as one :class:`StreamWindow`,
        and advances the clock with a single ``wake_at``.  Returns
        ``(pos, index)`` past the window, or ``None`` to run the
        event-stepped path.
        """
        device = self.device
        if ack.window is None or mode == TransferMode.DMA:
            return None
        k = self._window_size(ack, pos, total)
        if k < fastpath.MIN_WINDOW:
            return None
        engine = device.engine
        if not engine.quiescent:
            return None
        if device.smi.same_node(device.rank, dest):
            return None
        fabric = device.world.smi.fabric
        if fabric.fault_plan is not None or fabric._error_rate != 0.0:
            return None
        if fabric.qos is not None and fabric.qos.enforcing:
            # Active reservations shape per-transfer durations; the
            # closed-form replay assumes the unshaped cost model, so the
            # event-stepped path (which consults the QoS hook on every
            # wire op) must run instead.
            return None
        network = fabric.network
        if network.active_flows != 0:
            return None
        src_node = device.node.node_id
        dst_node = device.smi.node_of(dest).node_id
        try:
            route = fabric._check_route(src_node, dst_node)
            ack.region.handle(device.rank).ensure_mapped()
        except (SCIConnectionError, SegmentUnmappedError):
            return None  # let the event path surface the failure properly
        if not route.data_segments:
            return None

        n = ack.chunk_size
        chunk_mode = TransferMode.CONTIGUOUS if packed is not None else mode
        hop = route.hops * fabric.params_for(src_node).link.hop_latency
        ctrl_send = device._ctrl_cost(dest)
        ctrl_credit = ack.window.ctrl_cost
        if chunk_mode == TransferMode.DIRECT:
            write_durs = [
                self.chunk_write_duration(
                    chunk_mode, 0, n,
                    plan.groups_in_range(seg_off + pos + i * n, n), src_cached)
                for i in range(k)
            ]
        else:
            write_durs = [self.chunk_write_duration(
                chunk_mode, 0, n, [(n, 1)], src_cached)] * k
        drain_costs = [ack.window.chunk_cost(pos + i * n, n) for i in range(k)]

        rates: dict[float, float] = {}  # write duration -> exclusive rate
        end = engine.now
        for write_dur, drain_cost in zip(write_durs, drain_costs):
            rate = rates.get(write_dur)
            if rate is None:
                rate = rates[write_dur] = network.exclusive_rate(
                    route, n / write_dur)
            start = end
            end = network.replay_exclusive(route, n, rate, end + hop)
            self.stats["chunk_time"] += end - start
            if device.tracer is not None:
                device.tracer.record(start, device.rank, "chunk.write.begin",
                                     peer=dest, nbytes=n, mode=chunk_mode)
                fabric._trace_xfer("raw", src_node, dst_node, n, start,
                                   route, end)
                device.tracer.record(end, device.rank, "chunk.write.end",
                                     peer=dest, nbytes=n, retries=0)
            end = end + ctrl_send + drain_cost + ctrl_credit
        engine.events_coalesced += 5 * k

        payload = (packed[pos : pos + k * n] if packed is not None
                   else plan.stream_view(mem, base, seg_off + pos, k * n))
        # The event path leaves the last-written chunk in the packet
        # buffer; mirror that so memory state cannot diverge either.
        ack.region.local_view()[:n] = payload[(k - 1) * n :]
        fabric.counters["pio_writes"] += k
        fabric.counters["bytes_written"] += k * n
        self.stats["chunks"] += k
        self.stats["chunk_bytes"] += k * n
        self.fastpath["windows"] += 1
        self.fastpath["window_chunks"] += k

        ack.chunk_channel.try_put(
            StreamWindow(index, pos, k, n, payload, end))
        yield engine.wake_at(end, name="stream-window")
        return pos + k * n, index + k

    def send_rndv(self, dest, env, mem, base, ft, plan, count, seg_off,
                  total, mode, src_cached):
        """Rendezvous protocol: handshake, then credit-paced chunk stream."""
        device = self.device
        cfg = device.config
        reply: Channel = Channel(device.engine, name=f"rndv-reply-r{device.rank}")
        yield from device.send_ctrl(dest, RndvRequest(env, total, reply))
        ack: RndvAck = yield reply.get()

        packed: Optional[np.ndarray] = None
        if mode in (TransferMode.GENERIC, TransferMode.DMA):
            # Generic: recursive pack of the whole message up front (Fig. 4
            # top).  DMA (the paper's Sec. 6 outlook): flatten-pack into
            # registered memory with the fast ff loop, then DMA the chunks.
            pack_cost = (pack_cost_generic if mode == TransferMode.GENERIC
                         else pack_cost_direct)
            groups = self.message_groups(plan, ft, count, seg_off, total)
            yield device.engine.timeout(
                pack_cost(device.node.memory, groups, cfg))
            packed = plan.execute_pack(mem, base, seg_off, total)

        pos = 0
        index = 0
        while pos < total:
            advanced = yield from self._stream_window(
                dest, ack, mem, base, plan, packed, mode, seg_off, pos,
                index, total, src_cached,
            )
            if advanced is not None:
                pos, index = advanced
                continue
            n = min(ack.chunk_size, total - pos)
            if packed is not None:
                data = packed[pos : pos + n]
                groups = [(n, 1)]
                chunk_mode = (
                    TransferMode.DMA if mode == TransferMode.DMA
                    else TransferMode.CONTIGUOUS
                )
            else:  # contiguous or direct_pack_ff: straight from user memory
                data = plan.stream_view(mem, base, seg_off + pos, n)
                groups = self.chunk_groups(mode, plan, seg_off + pos, n)
                chunk_mode = mode
            yield from self._write_chunk(
                dest, ack.region, 0, data, chunk_mode, groups, src_cached,
                plan=plan, stream_off=seg_off + pos,
            )
            last = pos + n >= total
            yield from device.send_ctrl(
                dest, ChunkReady(index, n, last), to_channel=ack.chunk_channel
            )
            if not last:
                yield from self._await_credit(reply, dest)
            pos += n
            index += 1
        # Final credit confirms the receiver drained the last chunk.
        yield from self._await_credit(reply, dest)

    # -- receive protocols -------------------------------------------------------------

    def recv_short(self, msg: ShortMsg, mem, base, ft, plan, count, seg_off,
                   capacity, contiguous):
        device = self.device
        n = msg.data.nbytes
        if n > capacity:
            raise MessageTruncated(f"short message of {n} B > buffer {capacity} B")
        if not contiguous:
            groups = plan.groups_in_range(seg_off, n)
            yield device.engine.timeout(
                pack_cost_direct(device.node.memory, groups, device.config)
            )
        plan.execute_unpack(mem, base, seg_off, msg.data)
        if msg.sync_reply is not None:
            yield from device.send_ctrl(msg.envelope.source, True,
                                        to_channel=msg.sync_reply)
        return n

    def recv_eager(self, msg: EagerMsg, mem, base, ft, plan, count, seg_off,
                   capacity, mode, contiguous):
        device = self.device
        n = msg.nbytes
        if n > capacity:
            raise MessageTruncated(f"eager message of {n} B > buffer {capacity} B")
        yield device.engine.timeout(
            self.chunk_drain_cost(mode, contiguous, plan, seg_off, n))
        if mode == TransferMode.GENERIC:
            groups = plan.groups_in_range(seg_off, n)
            yield device.engine.timeout(
                pack_cost_generic(device.node.memory, groups, device.config))
        # Drained in place: the slot is this sender's until the CreditReturn.
        slot = device.eager_region.local_view()
        plan.execute_unpack(mem, base, seg_off,
                            slot[msg.slot_offset : msg.slot_offset + n])
        # Credit keyed by *this* rank at the sender's pool.
        yield from device.send_ctrl(
            msg.envelope.source, CreditReturn((device.rank, msg.slot_index))
        )
        if msg.sync_reply is not None:
            yield from device.send_ctrl(msg.envelope.source, True,
                                        to_channel=msg.sync_reply)
        return n

    def _window_support(self, mode, contiguous, plan,
                        seg_off) -> Optional[RecvWindowCosts]:
        """This receiver's half of the stream-window cost structure.

        Advertised in the rendezvous ack; ``None`` when the closed-form
        path is off, so the sender streams event-stepped chunks.  The
        ``chunk_cost`` closure is :meth:`chunk_drain_cost`, which the
        event-stepped receive loop below charges too — same memoization
        table — so the sender's analytic replay charges exactly what this
        rank would have charged per cycle.
        """
        if not fastpath.enabled:
            return None
        return RecvWindowCosts(
            chunk_cost=lambda pos, n: self.chunk_drain_cost(
                mode, contiguous, plan, seg_off + pos, n),
            ctrl_cost=self.device.config.ctrl_send_cost)

    @staticmethod
    def _land(data, mem, base, plan, packed_tmp, seg_off: int,
              pos: int) -> None:
        """Put drained stream bytes at ``pos`` where they belong: the
        generic receiver's packed temp, or straight into user memory."""
        if packed_tmp is not None:
            packed_tmp[pos : pos + data.nbytes] = data
        else:
            plan.execute_unpack(mem, base, seg_off + pos, data)

    def _rndv_priority(self, source: int) -> int:
        """Queue priority of ``source``'s rendezvous stream at this
        receiver's slot (lower wins).

        With QoS enforcement active and ``credit_priority`` on,
        reserved-lane senders rank ahead (0) of best-effort senders (1),
        so a reserved stream is granted the rendezvous buffer before
        best-effort streams that queued earlier.  In every other case all
        requests rank 0 — exact FIFO, bit-identical to the QoS-free
        scheduler.
        """
        qos = self.device.world.smi.fabric.qos
        if qos is None or not qos.enforcing or not qos.lanes.credit_priority:
            return 0
        node = self.device.smi.node_of(source).node_id
        return 0 if qos.lane_of_node(node) == LANE_RESERVED else 1

    def recv_rndv(self, msg: RndvRequest, mem, base, ft, plan, count, seg_off,
                  capacity, mode, contiguous):
        """Receiver side of the chunk stream: drain, unpack, credit."""
        device = self.device
        memory = device.node.memory
        cfg = device.config
        total = msg.nbytes
        if total > capacity:
            raise MessageTruncated(f"rendezvous of {total} B > buffer {capacity} B")
        yield device.rndv_lock.request(
            priority=self._rndv_priority(msg.envelope.source))
        try:
            chunk_channel: Channel = Channel(
                device.engine, name=f"rndv-chunks-r{device.rank}"
            )
            ack = RndvAck(chunk_channel, device.rndv_region, cfg.rendezvous_chunk,
                          window=self._window_support(mode, contiguous, plan,
                                                      seg_off))
            yield from device.send_ctrl(msg.envelope.source, ack,
                                        to_channel=msg.reply)

            packed_tmp: Optional[np.ndarray] = (
                np.empty(total, dtype=np.uint8)
                if mode == TransferMode.GENERIC
                else None
            )
            fault_plan = device.world.smi.fabric.fault_plan
            pos = 0
            while pos < total:
                ready = yield chunk_channel.get()
                if isinstance(ready, StreamWindow):
                    # One pass, no simulated time and no credits: the
                    # sender's replay already ran every cycle's clock.
                    assert ready.pos == pos, (ready.pos, pos)
                    self._land(ready.payload, mem, base, plan, packed_tmp,
                               seg_off, pos)
                    pos += ready.count * ready.nbytes
                    continue
                if fault_plan is not None:
                    # Injected node stall: this rank's receive path is
                    # descheduled — unpacking and the credit run late,
                    # exercising the sender's per-chunk timeout.
                    stall = fault_plan.draw_stall(device.node.node_id)
                    if stall:
                        yield device.engine.timeout(stall)
                n = ready.nbytes
                yield device.engine.timeout(self.chunk_drain_cost(
                    mode, contiguous, plan, seg_off + pos, n))
                # Drained in place: the sender rewrites the packet buffer
                # only after this chunk's credit.
                self._land(device.rndv_region.local_view()[:n], mem, base,
                           plan, packed_tmp, seg_off, pos)
                pos += n
                yield from device.send_ctrl(
                    msg.envelope.source, ChunkCredit(ready.index),
                    to_channel=msg.reply,
                )
            if packed_tmp is not None:
                # Generic: the final recursive unpack of the whole message.
                groups = self.message_groups(plan, ft, count, seg_off, total)
                yield device.engine.timeout(
                    pack_cost_generic(memory, groups, cfg)
                )
                plan.execute_unpack(mem, base, seg_off, packed_tmp)
        finally:
            device.rndv_lock.release()
        return total

    # -- one-sided chunked fetch -------------------------------------------------------

    def fetch_via_response(self, nbytes: int, make_request):
        """Chunk a remote-put / emulated get through the response region.

        ``make_request(pos, n)`` issues the control message for stream
        bytes ``[pos, pos + n)`` (a DES generator returning the chunk's
        completion event); the target's handler remote-puts each chunk
        into this rank's response region, which is then drained with a
        cache-cold protocol copy.
        """
        device = self.device
        response = device.response_region
        chunk = response.nbytes
        out = np.empty(nbytes, dtype=np.uint8)
        pos = 0
        while pos < nbytes:
            n = min(chunk, nbytes - pos)
            done = yield from make_request(pos, n)
            yield done
            yield device.engine.timeout(self.chunk_copy_cost(n))
            out[pos : pos + n] = response.local_view()[:n]
            pos += n
        return out
