"""TransferScheduler: streams packing-plan runs through bounded buffers.

This is the chunked data path of the unified transport layer.  Whatever
the communication mode — a pt2pt send, a one-sided response, a
collective's message — the bytes of a message are described by a
:class:`~repro.mpi.flatten.plan.PackPlan` (coalesced run tables over the
packed stream) and streamed through bounded SCI packet buffers with
credit-based flow control:

* **short** — payload inline in the control packet;
* **eager** — payload into a pre-granted eager slot (credit window of
  ``eager_slots`` per sender/receiver pair);
* **rendezvous** — handshake, then chunk-wise streaming through the
  receiver's rendezvous buffer, one credit per chunk ("handshake
  cycles", Sec. 3.3.2).

Every protocol body moves one whole message: the first ``total`` bytes
of the packed stream, all of it except where a message is shorter than
its receive buffer.  A :class:`Gate` pipelines a chained collective's
hops.

The scheduler also keeps the per-chunk cost accounting (``stats``): how
many packet-buffer chunks, payload bytes and simulated microseconds this
rank's transfers consumed, and reaches every priced decision on one
per-rank memo (:meth:`TransferScheduler.cheapest`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from ...hardware.sci.fabric import SCIConnectionError
from ...hardware.sci.segments import SegmentUnmappedError, local_run_cost
from ...hardware.sci.transactions import AccessRun, dma_cost, remote_write_cost
from ...sim import Channel
from ..errors import MessageTruncated, TransferAborted
from ..pt2pt.costs import direct_remote_chunk_duration
from ..pt2pt.messages import CreditReturn, EagerMsg, RndvRequest, ShortMsg
from ...qos.lanes import LANE_RESERVED
from . import fastpath
from .fastpath import CostTable, RecvWindowCosts, StreamWindow
from .policy import OSCStrategy, TransferMode
from .store import RemoteStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..flatten import PackPlan
    from ..pt2pt.engine import RankDevice

__all__ = ["ChunkCredit", "ChunkReady", "Fold", "Gate", "RndvAck", "TransferScheduler"]

#: The candidates of the mode and one-sided verdicts, first to take ties:
#: AUTO's modes; by op and mapped target, a remote put's or get's
#: strategies, priced, and unpriced (an untyped put, a several-run get).
_MODE_CANDIDATES = (TransferMode.DIRECT, TransferMode.GENERIC, TransferMode.DMA)
#: The copy loop of a sender's up-front pack (``MemorySystem.walk_cost``):
#: generic packs recursively, DMA flatten-packs with the ff loop.
_PACK_LOOP = {TransferMode.GENERIC: "generic", TransferMode.DMA: "ff"}
_OSC_CANDIDATES = {
    ("put", True): ((OSCStrategy.DIRECT, OSCStrategy.EMULATED), (OSCStrategy.DIRECT,)),
    ("get", True): ((OSCStrategy.DIRECT, OSCStrategy.REMOTE_PUT), (OSCStrategy.REMOTE_PUT,)),
    ("put", False): ((OSCStrategy.EMULATED, OSCStrategy.BATCHED),) * 2,
    ("get", False): ((OSCStrategy.EMULATED, OSCStrategy.BATCHED),) * 2,
}


@dataclass
class RndvAck:
    """Receiver's answer to a rendezvous request."""

    chunk_channel: Channel
    region: Any  # the receiver's rendezvous SharedRegion
    chunk_size: int
    #: ``land(pos, data)`` puts stream bytes at message position ``pos``
    #: where the receive wants them; the sender's chunk writes call it.
    land: Callable[[int, np.ndarray], None]
    #: Receiver-side stream-window support (``None`` = event path only).
    window: Optional[RecvWindowCosts] = None


class Fold:
    """A reduction receive's landing: ``ufunc(acc, x, out=acc)`` on the
    destination's elements, no copy.  Stream bytes ``[0, mark)`` are
    folded; a landing folds only the whole elements past that mark, so
    bytes that land again (a torn chunk resumed below its tear, or resent
    whole) fold once, and a torn element waits for its resend."""

    def __init__(self, ufunc: np.ufunc, dtype, dst: np.ndarray):
        self.ufunc, self.dtype, self.dst, self.mark = ufunc, np.dtype(dtype), dst, 0

    def __call__(self, pos: int, data: np.ndarray) -> None:
        lo, size = self.mark, self.dtype.itemsize
        hi = (pos + data.nbytes) // size * size
        if hi > lo:
            acc = self.dst[lo:hi].view(self.dtype)
            self.ufunc(acc, data[lo - pos : hi - pos].view(self.dtype), out=acc)
            self.mark = hi


class Gate:
    """How much of a forwarding member's stream is in user memory: bytes
    ``[0, mark)``.  Its receive raises the mark after each chunk drain (a
    generic receive, whose chunks land in a packed temp, only at its
    final unpack); its send waits on :meth:`wait` before each chunk."""

    def __init__(self, engine):
        self.engine, self.mark, self._waiter = engine, 0, None

    def raise_to(self, mark: int) -> None:
        self.mark = mark
        if self._waiter is not None and self._waiter[0] <= mark:
            self._waiter[1].succeed()
            self._waiter = None

    def wait(self, upto: int):
        """DES generator: return once the mark covers ``upto``."""
        if self.mark < upto:
            self._waiter = (upto, self.engine.event("gate"))
            yield self._waiter[1]


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
        #: Every verdict this rank reached (:meth:`cheapest`), by key.  No size
        #: limit: at most 115 entries per ledger repeat (re-check for new traffic).
        self.verdicts: dict[tuple, Any] = {}
        self._align = device.node.params.write_alignment
        self._node_of = device.smi.rank_to_node

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
        if mode == TransferMode.DMA:
            return self._costed(("dma", nbytes),
                                lambda: dma_cost(nbytes, params))
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
            lambda: device.world.smi.fabric.write_duration(
                device.node.node_id, AccessRun.contiguous(offset, nbytes),
                src_cached),
        )

    def chunk_walk(self, groups: list[tuple[int, int]], loop: str,
                   cold: bool) -> float:
        """``MemorySystem.walk_cost`` of one chunk's blocks (memoized): the
        ff loop and the protocol copy of a chunk are ``cold`` (the peer
        just produced it), a one-node direct store's copy is warm."""
        device = self.device
        return self._costed(
            ("walk", loop, cold, tuple(groups)),
            lambda: device.node.memory.walk_cost(groups, loop, cold,
                                                 device.config),
        )

    def chunk_drain_cost(self, mode: str, contiguous: bool, plan: "PackPlan",
                         pos: int, nbytes: int) -> float:
        """Receiver's cost of draining one packet-buffer chunk at stream
        position ``pos``: direct (and DMA) receivers unpack a
        non-contiguous type with the ff loop, everyone else pays a
        protocol copy."""
        if mode in (TransferMode.DIRECT, TransferMode.DMA) and not contiguous:
            return self.chunk_walk(plan.groups_in_range(pos, nbytes), "ff", True)
        return self.chunk_walk([(nbytes, 1)], "copy", True)

    # -- the AUTO verdict ---------------------------------------------------------------

    def price(self, mode: str, plan: "PackPlan", total: int,
              local: bool, sending: bool) -> float:
        """This side's share of an eager or rendezvous transfer of the
        first ``total`` stream bytes of ``plan`` under ``mode``.

        The sum of what the protocol bodies below charge that depends on
        the mode, built from the memoized chunk costs they charge: the
        sender's up-front pack and its chunk writes (the protocol copy
        locally), the receiver's chunk drains and its final generic
        unpack.  Control packets, polls and credits cost the same in
        every mode and are left out.  Eager slot offsets are multiples of
        the eager threshold, priced at alignment 0 like rendezvous chunks.
        """
        device = self.device
        cfg = device.config
        memory = device.node.memory
        eager = total <= cfg.eager_threshold
        step = total if eager else cfg.rendezvous_chunk
        chunks = [(pos, min(step, total - pos)) for pos in range(0, total, step)]
        whole = self.message_groups(plan, total)
        if not sending:
            cost = sum(self.chunk_drain_cost(mode, False, plan, pos, n)
                       for pos, n in chunks)
            if mode == TransferMode.GENERIC:
                cost += memory.walk_cost(whole, "generic", True, cfg)
            return cost
        if eager and mode == TransferMode.DMA:
            mode = TransferMode.GENERIC  # send_eager's PIO fallback
        cost = 0.0
        if mode in _PACK_LOOP:
            cost = memory.walk_cost(whole, _PACK_LOOP[mode], True, cfg)
        src_cached = memory.src_cached(total)
        for pos, n in chunks:
            if mode == TransferMode.DIRECT:
                groups = plan.groups_in_range(pos, n)
                cost += (self.chunk_walk(groups, "ff", True) if local else
                         self.chunk_write_duration(mode, 0, n, groups,
                                                   src_cached))
            elif local:
                cost += self.chunk_walk([(n, 1)], "copy", True)
            else:
                cost += self.chunk_write_duration(mode, 0, n, [(n, 1)],
                                                  src_cached)
        return cost

    def verdict(self, plan: "PackPlan", total: int, peer: int,
                sending: bool) -> str:
        """AUTO's mode for this side: the cheapest :meth:`price` of DIRECT
        (ties), GENERIC and DMA per (plan, message size, route, side), the
        plan keyed as the plan cache keys it, by ``(ft, count)``, so the
        memo keeps no run table alive."""
        device = self.device
        key = ("mode", plan.ft, plan.count, total,
               device.smi.same_node(device.rank, peer), sending)
        return (fastpath.enabled and self.verdicts.get(key)) or self.cheapest(
            key, _MODE_CANDIDATES, partial(self.price, plan=plan, total=total,
                                           local=key[4], sending=sending))

    def cheapest(self, key: tuple, candidates: tuple,
                 price: Callable[[Any], float]) -> Any:
        """The per-rank memo :attr:`verdicts` at ``key`` (neither read nor
        written under ``fastpath_disabled()``, so a key must fix its price);
        on a miss, ``TransferPolicy.force(key)``, else a lone candidate
        unpriced, else the candidate of least ``price``, ties to the first.
        The mode and one-sided callers read the memo first, so that their
        hit builds neither ``candidates`` nor ``price``."""
        verdict = (fastpath.enabled and self.verdicts.get(key)) or self.device.policy.force(key)
        if verdict is None:
            verdict = candidates[0] if len(candidates) == 1 else min(candidates, key=price)
        if fastpath.enabled:
            self.verdicts[key] = verdict
        return verdict

    # -- the one-sided verdict ------------------------------------------------------------

    def osc_price(self, strategy: str, op: str, run: Optional[AccessRun],
                  plan: Optional["PackPlan"], disp: int, nbytes: int,
                  peer: int) -> float:
        """What one lone put or get of ``nbytes`` at ``disp`` of rank
        ``peer``'s window part costs under ``strategy``: the time until the
        get returns or the closing fence may pass, plus a remote-put
        handler's hold on the target's service loop, which the origin's
        interrupt hides; a batched put, what it adds to its target's one
        shipment (staging copy, bytes on the write, runs in the scatter); a
        batched get, what it adds to its target's one request (its runs in
        the handler's gather and its bytes in the response, a hold as
        above, and its cold drain).  Built from what ``RemoteStore``,
        ``OSCEngine.serve``, ``Win`` and :meth:`fetch_via_response`
        charge; on one node every copy between the two ranks shares the
        memory bus."""
        device, cfg = self.device, self.device.config
        fabric = device.world.smi.fabric
        target = device.world.device(peer)
        src, dst = device.node.node_id, target.node.node_id
        local = src == dst
        adapter, memory, tmemory = (fabric.params_for(src).adapter,
                                    device.node.memory, target.node.memory)
        hop = 0.0 if local else (fabric.topology.route(src, dst).hops
                                 * fabric.params_for(src).link.hop_latency)
        handler = target.config.poll_latency + target.node.params.adapter.handler_dispatch
        src_cached = memory.src_cached(nbytes)
        fence = cfg.osc_call_overhead + (0.0 if local else fabric.barrier_time(src))

        def on_bus(n: int, duration: float) -> float:  # a copy alone on the bus
            return max(duration, n / device.node.bus_capacity)

        if strategy == OSCStrategy.BATCHED and op == "get":
            # The handler's gather and response write hold the target's
            # service loop as a remote-put's do (below): counted twice.
            gather = tmemory.walk_cost([(nbytes, 1)] if plan is None else plan.groups_in_range(0),
                                       "ff", True, target.config)
            back = (on_bus(nbytes, tmemory.walk_cost([(nbytes, 1)], "copy", False)) if local
                    else remote_write_cost(AccessRun.contiguous(0, nbytes),
                                           fabric.params_for(dst), False).duration)
            return 2 * (gather + back) + self.chunk_walk([(nbytes, 1)], "copy", True)
        if strategy == OSCStrategy.BATCHED:
            stage = memory.walk_cost([(nbytes, 1)], "copy", False)
            copy = tmemory.walk_cost([(nbytes, 1)], "copy", False) + (
                1 if plan is None else plan.n_runs) * target.config.direct_pack_block_cost
            if local:
                return stage + on_bus(nbytes, stage) + on_bus(nbytes, copy)
            return stage + copy + remote_write_cost(AccessRun.contiguous(disp, nbytes),
                                                    fabric.params_for(src), True).duration
        if op == "put" and strategy == OSCStrategy.EMULATED:
            ship = (on_bus(nbytes, memory.walk_cost([(nbytes, 1)], "copy", False)) if local
                    else 2 * hop + adapter.interrupt_latency + self.chunk_write_duration(
                        TransferMode.CONTIGUOUS, disp, nbytes, [(nbytes, 1)],
                        src_cached))
            copy = tmemory.walk_cost([(nbytes, 1)], "copy", False) + (
                0 if plan is None else plan.n_runs * target.config.direct_pack_block_cost)
            return ship + max(cfg.osc_call_overhead,
                              handler + (on_bus(nbytes, copy) if local else copy))
        if strategy == OSCStrategy.DIRECT and run is not None:
            if local:
                return (on_bus(nbytes, local_run_cost(memory, run))
                        + (0.0 if op == "get" else fence))
            if op == "get":
                return fabric.read_duration(src, run, fabric.topology.route(src, dst))
            return hop + fabric.write_duration(src, run, src_cached) + fence
        cost = 0.0
        if op == "put":  # direct_pack_ff stores along the target plan
            for pos in range(0, nbytes, cfg.rendezvous_chunk):
                n = min(cfg.rendezvous_chunk, nbytes - pos)
                groups = plan.groups_in_range(pos, n)
                cost += (on_bus(n, self.chunk_walk(groups, "copy", False)) if local
                         else hop + self.chunk_write_duration(
                             TransferMode.DIRECT, pos, n, groups, src_cached))
            return cost + fence
        # Remote-put, per response-region chunk: a request; the handler
        # packs along a strided plan, writes the chunk back and fences it
        # (``busy``); the origin drains the chunk.
        back = 0.0 if local else (fabric.topology.route(dst, src).hops
                                  * fabric.params_for(dst).link.hop_latency)
        strided = plan is not None and (run is None or run.stride != run.size)
        for pos in range(0, nbytes, cfg.osc_response_size):
            n = min(cfg.osc_response_size, nbytes - pos)
            busy = handler + (tmemory.walk_cost(plan.groups_in_range(pos, n), "ff", True,
                                                target.config) if strided else 0.0)
            busy += (on_bus(n, tmemory.walk_cost([(n, 1)], "copy", False)) if local
                     else back + fabric.write_duration(dst, AccessRun.contiguous(0, n), False)
                     + fabric.barrier_time(dst))
            wait = (cfg.ctrl_send_cost_local + busy if local else cfg.ctrl_send_cost
                    + max(adapter.interrupt_latency + hop, busy))
            cost += wait + busy + self.chunk_walk([(n, 1)], "copy", True)
        return cost

    def osc_verdict(self, op: str, run: Optional[AccessRun],
                    plan: Optional["PackPlan"], disp: int, nbytes: int,
                    peer: int, mapped: bool) -> str:
        """The :class:`~repro.mpi.transport.policy.OSCStrategy` of a remote
        ``"put"`` or ``"get"``: the cheaper :meth:`osc_price` of DIRECT
        (ties) and the alternative on a ``mapped`` target (a shared window
        this rank still maps), of EMULATED (ties) and BATCHED for a put
        into or a get from private memory or a degraded target; per op, size, target
        shape (one strided run or not, a plan), alignment of ``disp``,
        destination node (which fixes the route) and mapping, never
        ``disp`` itself.  Unpriced: a typed get of several runs is a
        remote-put, and an untyped put to a mapped target stores directly;
        emulating it ships the same bytes, then pays a handler and a
        second copy (one node) or an interrupt, which outweighs the store
        barrier it saves on rings up to 88 nodes, and on any ring once an
        epoch holds a dozen puts."""
        key = ("osc", op, nbytes, run is not None,
               None if plan is None else (plan.ft, plan.count),
               disp % self._align, self._node_of[peer], mapped)
        return (fastpath.enabled and self.verdicts.get(key)) or self.cheapest(
            key, _OSC_CANDIDATES[op, mapped][(plan if op == "put" else run) is None],
            partial(self.osc_price, op=op, run=run, plan=plan, disp=disp,
                    nbytes=nbytes, peer=peer))

    # -- grouping (the single chunk-group implementation) ---------------------------

    @staticmethod
    def chunk_groups(mode: str, plan: "PackPlan", pos: int,
                     nbytes: int) -> list[tuple[int, int]]:
        """``(block_len, n_blocks)`` groups of one chunk of the stream."""
        if mode == TransferMode.CONTIGUOUS:
            return [(nbytes, 1)]
        return plan.groups_in_range(pos, nbytes)

    @staticmethod
    def message_groups(plan: "PackPlan", total: int) -> list[tuple[int, int]]:
        """Block groups of the first ``total`` bytes of ``plan``'s stream.

        A whole message uses the flattened type's per-leaf grouping (what
        the generic recursive traversal walks); a message shorter than its
        receive buffer uses the plan's coalesced range view of its prefix.
        """
        if total == plan.total:
            return plan.ft.block_length_groups(plan.count)
        return plan.groups_in_range(0, total)

    # -- chunk write with accounting -------------------------------------------------

    def _write_chunk(self, dst: int, region, offset: int, data: np.ndarray,
                     mode: str, groups: list[tuple[int, int]],
                     src_cached: bool, land, plan: "PackPlan", stream_off: int):
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
                part_groups = groups
            elif mode == TransferMode.DIRECT:
                part_groups = plan.groups_in_range(stream_off + pos, n - pos)
            else:
                part_groups = [(n - pos, 1)]
            yield from self.store.write_packed(
                dst, region, offset + pos, data[pos:], mode, part_groups,
                src_cached, land)

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
        ``max_retransmits`` consecutive timeouts.  A timer that loses its
        race is cancelled, so it cannot move the clock past the transfer.
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
        timer = engine.timeout(timeout)
        yield engine.any_of([get_ev, timer])
        timer.cancel()
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
            timer = engine.timeout(timeout)
            yield engine.any_of([get_ev, timer])
            timer.cancel()
            device._trace("recover.retry.end", peer=dest)
        credit = get_ev.value
        assert isinstance(credit, ChunkCredit)
        return credit

    # -- send protocols ---------------------------------------------------------------

    def send_short(self, dest, env, mem, base, plan, total, contiguous,
                   sync_reply):
        """Short protocol: pack inline (tiny either way) + one ctrl packet."""
        device = self.device
        # A copy even when contiguous: the ShortMsg outlives this send.
        payload = plan.execute_pack(mem, base, 0, total)
        if not contiguous:
            yield device.engine.timeout(device.node.memory.walk_cost(
                self.message_groups(plan, total), "ff", True, device.config))
        yield from device.send_ctrl(dest, ShortMsg(env, payload, sync_reply))

    def send_eager(self, dest, env, mem, base, plan, total, mode,
                   src_cached, sync_reply=None):
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
        peer_region = device.world.device(dest).eager_regions[device.rank]
        slot_offset = device.eager_slot_offset(slot)
        slots = peer_region.local_view()

        if mode == TransferMode.GENERIC:
            yield device.engine.timeout(device.node.memory.walk_cost(
                self.message_groups(plan, total), "generic", True, cfg))
        data = plan.stream_view(mem, base, 0, total)
        groups = self.chunk_groups(mode, plan, 0, total)
        yield from self._write_chunk(
            dest, peer_region, slot_offset, data, mode, groups, src_cached,
            lambda offset, part: np.copyto(slots[offset : offset + part.nbytes], part),
            plan=plan, stream_off=0,
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
                       mode, pos, index, total, src_cached):
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
        if not fabric.exact:
            # The replay assumes every chunk takes its priced duration:
            # faults, retries and QoS shaping need the event-stepped path.
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
                    plan.groups_in_range(pos + i * n, n), src_cached)
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

        ack.land(pos, packed[pos : pos + k * n] if packed is not None
                 else plan.stream_view(mem, base, pos, k * n))
        fabric.counters["pio_writes"] += k
        fabric.counters["bytes_written"] += k * n
        self.stats["chunks"] += k
        self.stats["chunk_bytes"] += k * n
        self.fastpath["windows"] += 1
        self.fastpath["window_chunks"] += k

        ack.chunk_channel.try_put(StreamWindow(pos, k * n))
        yield engine.wake_at(end, name="stream-window")
        return pos + k * n, index + k

    def send_rndv(self, dest, env, mem, base, plan, total, mode, src_cached,
                  gate: Optional[Gate] = None):
        """Rendezvous protocol: handshake, then credit-paced chunk stream.
        A ``gate`` holds each chunk until its mark covers it, and any
        window until it is fully open."""
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
            yield device.engine.timeout(device.node.memory.walk_cost(
                self.message_groups(plan, total), _PACK_LOOP[mode], True, cfg))
            packed = plan.execute_pack(mem, base, 0, total)

        pos = 0
        index = 0
        while pos < total:
            if gate is None or gate.mark >= total:
                advanced = yield from self._stream_window(
                    dest, ack, mem, base, plan, packed, mode, pos, index,
                    total, src_cached,
                )
                if advanced is not None:
                    pos, index = advanced
                    continue
            n = min(ack.chunk_size, total - pos)
            if gate is not None:
                yield from gate.wait(pos + n)
            if packed is not None:
                data = packed[pos : pos + n]
                groups = [(n, 1)]
                chunk_mode = (
                    TransferMode.DMA if mode == TransferMode.DMA
                    else TransferMode.CONTIGUOUS
                )
            else:  # contiguous or direct_pack_ff: straight from user memory
                data = plan.stream_view(mem, base, pos, n)
                groups = self.chunk_groups(mode, plan, pos, n)
                chunk_mode = mode
            yield from self._write_chunk(
                dest, ack.region, 0, data, chunk_mode, groups, src_cached,
                lambda offset, part: ack.land(pos + offset, part),
                plan=plan, stream_off=pos,
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

    def recv_short(self, msg: ShortMsg, mem, base, plan, capacity,
                   contiguous, fold):
        device = self.device
        n = msg.data.nbytes
        if n > capacity:
            raise MessageTruncated(f"short message of {n} B > buffer {capacity} B")
        if not contiguous:
            yield device.engine.timeout(device.node.memory.walk_cost(
                plan.groups_in_range(0, n), "ff", True, device.config))
        self._land(mem, base, plan, None, fold, 0, msg.data)
        return n

    def recv_eager(self, msg: EagerMsg, mem, base, plan, capacity, mode,
                   contiguous, fold):
        device = self.device
        n = msg.nbytes
        if n > capacity:
            raise MessageTruncated(f"eager message of {n} B > buffer {capacity} B")
        yield device.engine.timeout(
            self.chunk_drain_cost(mode, contiguous, plan, 0, n))
        if mode == TransferMode.GENERIC:
            yield device.engine.timeout(device.node.memory.walk_cost(
                self.message_groups(plan, n), "generic", True, device.config))
        # Drained in place: the slot is this sender's until the CreditReturn.
        slot = device.eager_regions[msg.envelope.source].local_view()
        self._land(mem, base, plan, None, fold, 0,
                   slot[msg.slot_offset : msg.slot_offset + n])
        # Credit keyed by *this* rank at the sender's pool.
        yield from device.send_ctrl(
            msg.envelope.source, CreditReturn((device.rank, msg.slot_index))
        )
        return n

    def _window_support(self, mode, contiguous,
                        plan) -> Optional[RecvWindowCosts]:
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
                mode, contiguous, plan, pos, n),
            ctrl_cost=self.device.config.ctrl_send_cost)

    @staticmethod
    def _land(mem, base, plan, packed_tmp, fold: Optional[Fold], pos: int,
              data) -> None:
        """Put stream bytes at ``pos`` where they belong: the generic
        receiver's packed temp, else straight into user memory — folded
        there by a reduction receive's :class:`Fold`."""
        if packed_tmp is not None:
            packed_tmp[pos : pos + data.nbytes] = data
        elif fold is not None:
            fold(pos, data)
        else:
            plan.execute_unpack(mem, base, pos, data)

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

    def recv_rndv(self, msg: RndvRequest, mem, base, plan, capacity, mode,
                  contiguous, fold, gate: Optional[Gate] = None):
        """Receiver side of the chunk stream: drain, unpack, credit.  A
        drain into user memory raises the ``gate``, if given, and the ack
        then offers no window (it would land chunks ahead of their time)."""
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
            packed_tmp: Optional[np.ndarray] = (
                np.empty(total, dtype=np.uint8)
                if mode == TransferMode.GENERIC
                else None
            )
            # The sender's chunk writes land the bytes: the packet buffer
            # sets their cost, never holds them.
            ack = RndvAck(chunk_channel, device.rndv_region, cfg.rendezvous_chunk,
                          partial(self._land, mem, base, plan, packed_tmp, fold),
                          window=None if gate is not None else
                          self._window_support(mode, contiguous, plan))
            yield from device.send_ctrl(msg.envelope.source, ack,
                                        to_channel=msg.reply)

            fault_plan = device.world.smi.fabric.fault_plan
            pos = 0
            while pos < total:
                ready = yield chunk_channel.get()
                if isinstance(ready, StreamWindow):
                    # No simulated time and no credits: the sender's replay
                    # ran every cycle's clock and landed the window's bytes.
                    assert ready.pos == pos, (ready.pos, pos)
                    pos += ready.nbytes
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
                    mode, contiguous, plan, pos, n))
                pos += n
                if gate is not None and packed_tmp is None:
                    gate.raise_to(pos)
                yield from device.send_ctrl(
                    msg.envelope.source, ChunkCredit(ready.index),
                    to_channel=msg.reply,
                )
            if packed_tmp is not None:
                # Generic: the final recursive unpack of the whole message.
                yield device.engine.timeout(memory.walk_cost(
                    self.message_groups(plan, total), "generic", True, cfg))
                self._land(mem, base, plan, None, fold, 0, packed_tmp)
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
            yield device.engine.timeout(self.chunk_walk([(n, 1)], "copy", True))
            out[pos : pos + n] = response.local_view()[:n]
            pos += n
        return out
