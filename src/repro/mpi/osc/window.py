"""MPI-2 one-sided communication on SCI (Sec. 4 of the paper).

A *window* exposes a contiguous memory area of each rank of a
communicator to every other rank of it.  A remote put or get takes the
cheapest of four ways (``TransferScheduler.osc_verdict``, unless the
world's :class:`~repro.mpi.transport.policy.TransferPolicy` forces one):

* **direct** — transparent remote stores or loads into window memory
  from an SCI shared segment (``shared=True``, the ``MPI_Alloc_mem``
  path); a put to a target of several runs stores direct_pack_ff along
  its plan;
* **remote-put** — a get the target answers by writing into the
  origin's response region (SCI remote reads stall the CPU);
* **emulated** — a control message and remote interrupt invoke a handler
  at the target; the way into *private* window memory;
* **batched** — a put into or a get from private memory (or a degraded
  target) waits in its target's queue, which holds puts or gets, until
  fence, complete, unlock, flush, or a call to that target that does not
  join the queue ships it: puts as one emulated put, their runs applied in
  call order; gets as one emulated get, the handler gathering their runs
  in one pass.  A get returns its buffer at once; its bytes are defined
  once a completion point for its target has passed (MPI's rule).

``MPI_Accumulate`` always runs at the target (read-modify-write needs
its CPU).  Synchronization: fence, general active target
(post/start/complete/wait) and passive target (lock/unlock with SMI
shared-memory locks).  Every payload byte moves through the device's
:class:`~repro.mpi.transport.store.RemoteStore`.  Ranks in the public
:class:`Win` API are communicator-local; internal messages carry world
ranks.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ...sim import Channel, Event
from ...smi import SMIBarrier, SMIRWLock
from ..coll.collectives import OPS, op_folds
from ..datatypes.base import Datatype
from ..errors import RMAError, TransferFault
from ..flatten import PackPlan
from ..transport import OSCStrategy, TransferMode, resolve_target
from .messages import OSCAccumulate, OSCGet, OSCNotice, OSCPut

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..comm import Communicator
    from ..pt2pt.engine import MPIWorld, RankDevice

__all__ = ["Win", "WinGlobal", "win_create"]


@dataclass
class WinPart:
    """One rank's exposed window memory (keyed by world rank)."""

    world_rank: int
    shared: bool
    nbytes: int
    region: Any = None  # SharedRegion when shared
    buffer: Any = None  # private Buffer otherwise

    def local_view(self) -> np.ndarray:
        if self.shared:
            return self.region.local_view()
        return self.buffer.read()


#: The ``Win.counters`` entry of each way a remote get went.
_GET_COUNTERS = {OSCStrategy.DIRECT: "direct_gets",
                 OSCStrategy.REMOTE_PUT: "remote_puts",
                 OSCStrategy.EMULATED: "emulated_gets",
                 OSCStrategy.BATCHED: "emulated_gets"}


class _Batch:
    """The calls queued for one target, all puts or all gets (``kind``):
    their target runs in call order, the count of each call size and the
    first call's ``(disp, run, plan)``; the puts' bytes back to back in
    one staging buffer (grown by doubling, reused), the gets' buffers."""

    def __init__(self):
        self.data, self.used, self.sizes = np.empty(64, np.uint8), 0, {}
        self.offsets, self.lengths, self.first = array("q"), array("q"), None
        self.kind, self.outs = None, []

    def __bool__(self) -> bool:
        return bool(self.sizes)

    def add(self, kind: str, disp: int, n: int, run, plan, payload=None):
        """Queue a put of ``payload`` or a get of ``n`` bytes; a get's
        buffer is returned, filled when the queue ships."""
        if not self.sizes:
            self.kind, self.first = kind, (disp, run, plan)
        self.sizes[n] = self.sizes.get(n, 0) + 1
        if plan is not None:
            self.offsets.extend(plan.run_offsets + disp)
            self.lengths.extend(plan.run_lengths)
        elif n:
            self.offsets.append(disp)
            self.lengths.append(n)
        if kind == "get":
            self.outs.append(np.zeros(n, np.uint8))
            return self.outs[-1]
        end = self.used + n
        if end > self.data.nbytes:
            self.data.resize(max(end, 2 * self.data.nbytes), refcheck=False)
        self.data[self.used : end] = payload
        self.used = end
        return None

    def take(self):
        """Empty the queue into ``(disp, run, plan, groups, data, outs)`` of
        its one shipment: a lone call as it was made, several at 0 along a
        plan of their runs, with the ``(size, count)`` groups of their
        blocks; the puts' packed bytes, the gets' buffers."""
        data, outs, groups = (self.data[: self.used].copy(), self.outs,
                              list(self.sizes.items()))
        runs = (np.frombuffer(self.offsets, np.int64),
                np.frombuffer(self.lengths, np.int64))
        self.used, self.sizes, self.outs = 0, {}, []
        self.offsets, self.lengths = array("q"), array("q")
        if [count for _, count in groups] == [1]:
            return (*self.first, None, data, outs)
        return 0, None, PackPlan(None, 1, runs), groups, data, outs


def _load(view: np.ndarray, disp: int, plan, pos: int,
          nbytes: int) -> np.ndarray:
    """A copy of packed-stream bytes ``[pos, pos + nbytes)`` of a target
    footprint: along ``plan``, or the bytes from ``disp`` on without one."""
    if plan is None:
        return np.array(view[disp + pos : disp + pos + nbytes], copy=True)
    return plan.execute_pack(view, disp, pos, nbytes)


def _store(view: np.ndarray, disp: int, plan, data: np.ndarray) -> None:
    """Write a whole packed stream into a target footprint."""
    if plan is None:
        view[disp : disp + data.nbytes] = data
    else:
        plan.execute_unpack(view, disp, 0, data)


class OSCEngine:
    """Per-rank handler for emulated one-sided requests.

    Installed as the device's ``osc_handler``; the service loop runs it
    like an interrupt service routine ("a remote handler ... to accept or
    deliver data").
    """

    def __init__(self, device: "RankDevice"):
        self.device = device
        self.windows: dict[Any, "WinGlobal"] = {}
        device.osc_handler = self.handle

    def handle(self, msg: Any):
        if isinstance(msg, OSCNotice):
            win = self.windows[msg.win_id]
            win.notice_channel(self.device.rank, msg.kind, msg.source).try_put(True)
            return None
        if isinstance(msg, (OSCPut, OSCGet, OSCAccumulate)):
            return self.serve(msg)
        raise RMAError(f"unexpected OSC message {msg!r}")

    def serve(self, msg, local: bool = False):
        """The target-side body of put, get and accumulate.

        The handler runs it for an emulated request: handler dispatch,
        the operation, then the origin's event succeeds.  A put or
        accumulate to this rank's own window runs the same body with
        ``local=True``: no dispatch charge and no acknowledgement.
        Returns the fetched bytes (accumulate's previous contents).
        """
        device = self.device
        engine = device.engine
        memory = device.node.memory
        if not local:
            # Handler dispatch after the remote interrupt.
            yield engine.timeout(device.node.params.adapter.handler_dispatch)
        view = self.windows[msg.win_id].parts[device.rank].local_view()
        plan = msg.plan

        if isinstance(msg, OSCGet):
            # Remote-put: write the window data into the origin's response
            # region ("the target process writes the data into the origin
            # process' address space", Sec. 4.2).
            if plan is not None:
                # Non-contiguous target layout: pack this chunk's stream
                # range along the plan (an ff loop).
                groups = device.scheduler.chunk_groups(
                    TransferMode.DIRECT, plan, msg.pos, msg.nbytes)
                yield engine.timeout(
                    memory.walk_cost(groups, "ff", True, device.config))
            data = _load(view, msg.disp, plan, msg.pos, msg.nbytes)
            origin_device = device.world.device(msg.origin)
            yield from device.store.respond_remote_put(
                msg.origin, origin_device.response_region,
                msg.response_offset, data,
            )
            msg.done.succeed()
            return None

        n = msg.data.nbytes
        fetched = None
        if isinstance(msg, OSCPut):
            # Along a target plan the copy is an ff loop: per-run cost on top.
            copy = memory.walk_cost([(n, 1)], "copy", False) + (
                0 if plan is None else plan.n_runs * device.config.direct_pack_block_cost)
            if local or not device.smi.same_node(device.rank, msg.origin):
                yield engine.timeout(copy)
            else:  # out of staging memory a rank of this node filled
                yield from device.node.bus_transfer(engine, n, copy)
            _store(view, msg.disp, plan, msg.data)
        else:
            cost = memory.walk_cost([(n, 1)], "copy", False) * 1.5
            if plan is not None:
                # Gather along the plan, scatter the result back: two ff
                # pack loops on top of the read-modify-write.
                groups = device.scheduler.message_groups(plan, plan.total)
                cost += 2 * memory.walk_cost(groups, "ff", True, device.config)
            yield engine.timeout(cost)
            fetched = _load(view, msg.disp, plan, 0, n).view(msg.np_dtype)
            result = msg.data
            if msg.op != "replace":
                result = OPS[msg.op](
                    fetched, msg.data.view(msg.np_dtype)).view(np.uint8)
            _store(view, msg.disp, plan, result)
        if not local:
            msg.ack.succeed(fetched)
        return fetched


def _osc_engine(device: "RankDevice") -> OSCEngine:
    if not hasattr(device, "_osc_engine"):
        device._osc_engine = OSCEngine(device)
        device.response_region = device.smi.create_region(
            device.rank, device.config.osc_response_size,
            label=f"osc-response-r{device.rank}",
        )
    return device._osc_engine


class WinGlobal:
    """Cross-rank shared state of one window."""

    def __init__(self, world: "MPIWorld", win_id: Any, group: tuple[int, ...]):
        self.world = world
        self.win_id = win_id
        #: Communicator group: local rank -> world rank.
        self.group = group
        #: Window parts, keyed by *world* rank.
        self.parts: dict[int, WinPart] = {}
        #: Every rank's :class:`Win` handle (for the metrics registry's
        #: ``osc.*`` collectors, which sum handle counters per window).
        self.handles: list["Win"] = []
        self.fence_barrier = SMIBarrier(
            world.smi, ranks=list(group), home_rank=group[0]
        )
        #: Passive-target locks, one per target, homed at the target
        #: ("mutual exclusion ... via shared memory locks", Sec. 4.2).
        #: Reader–writer: shared epochs run concurrently, exclusive
        #: acquisition is FIFO starvation-free.
        self.locks: dict[int, SMIRWLock] = {
            w: SMIRWLock(world.smi, home_rank=w, name=f"win{win_id}-lock-w{w}")
            for w in group
        }
        #: Epoch notices for post/start/complete/wait, keyed by
        #: (at world rank, kind, from world rank); channels so repeated
        #: epochs queue correctly.
        self._notices: dict[tuple[int, str, int], Channel] = {}

    def notice_channel(self, at_rank: int, kind: str, source: int) -> Channel:
        key = (at_rank, kind, source)
        if key not in self._notices:
            self._notices[key] = Channel(self.world.engine, name=f"win-notice-{key}")
        return self._notices[key]


class Win:
    """One rank's handle to a window (returned by ``comm.win_create``).

    Target ranks in every method are communicator-local.
    """

    def __init__(self, shared_state: WinGlobal, comm: "Communicator"):
        self.state = shared_state
        self.comm = comm
        self.rank = comm.rank
        self.world_rank = comm.world_rank
        self.device = comm.device
        self.engine = comm.engine
        self.config = self.device.config
        self.store = self.device.store
        #: This rank's handler; local puts and accumulates run its body.
        self.osc_engine = _osc_engine(self.device)
        #: World ranks touched by direct stores since the last sync (need
        #: a store barrier at the synchronization point).
        self._dirty_targets: set[int] = set()
        #: Outstanding emulated-operation acknowledgements, per world rank.
        self._pending_acks: dict[int, list[Event]] = {}
        #: Queued (batched) puts or gets, per world rank.
        self._batches: defaultdict[int, _Batch] = defaultdict(_Batch)
        #: Mode of each held passive-target lock (world rank -> exclusive).
        self._held_locks: dict[int, bool] = {}
        #: World ranks whose window segment became unmappable mid-epoch:
        #: direct access and remote-put both need a valid mapping, so they
        #: are permanently degraded to the emulated path, which maps
        #: nothing remotely.
        self._degraded: set[int] = set()
        self._verdict = self.device.scheduler.osc_verdict
        self.counters = {
            "direct_puts": 0,
            "direct_gets": 0,
            "remote_puts": 0,
            "emulated_puts": 0,
            "emulated_gets": 0,
            "accumulates": 0,
        }
        shared_state.handles.append(self)

    # -- helpers --------------------------------------------------------------------

    @property
    def parts(self) -> dict[int, WinPart]:
        return self.state.parts

    def _world(self, target: int) -> int:
        if not 0 <= target < len(self.state.group):
            raise RMAError(
                f"target rank {target} outside window group of "
                f"{len(self.state.group)}"
            )
        return self.state.group[target]

    def part(self, target: int) -> WinPart:
        wtarget = self._world(target)
        try:
            return self.parts[wtarget]
        except KeyError:
            raise RMAError(f"rank {target} has no part in this window") from None

    def local_view(self) -> np.ndarray:
        """This rank's own window memory (direct load/store)."""
        return self.parts[self.world_rank].local_view()

    @staticmethod
    def _as_bytes(data) -> np.ndarray:
        if isinstance(data, np.ndarray):
            return np.ascontiguousarray(data).reshape(-1).view(np.uint8)
        if isinstance(data, (bytes, bytearray)):
            return np.frombuffer(bytes(data), dtype=np.uint8)
        # repro.memlib.Buffer
        return np.array(data.read(), copy=True)

    # -- data operations ----------------------------------------------------------------

    def put(self, data, target: int, target_disp: int = 0,
            target_datatype: Optional[Datatype] = None, target_count: int = 1):
        """MPI_Put (DES generator): move data from origin to target."""
        payload = self._as_bytes(data)
        n = payload.nbytes
        part = self.part(target)
        wtarget = part.world_rank
        self.device._trace("osc.put.begin", target=wtarget, nbytes=n)
        yield self.engine.timeout(self.config.osc_call_overhead)
        run, plan = resolve_target(part, target_disp, n, target_datatype,
                                   target_count)

        if wtarget == self.world_rank:
            # Local window: the handler's body, without dispatch or ack.
            yield from self.osc_engine.serve(
                OSCPut(self.state.win_id, self.world_rank, target_disp,
                       payload, None, plan),
                local=True,
            )
            self.device._trace("osc.put.end", target=wtarget, strategy="local")
            return

        strategy = self._strategy("put", run, plan, target_disp, n, part)
        if strategy == OSCStrategy.BATCHED:
            yield from self._ship(wtarget, keep="put")
            self._batches[wtarget].add("put", target_disp, n, run, plan,
                                       payload)
        elif strategy == OSCStrategy.DIRECT:
            # Transparent remote stores: along one strided run, or
            # direct_pack_ff through the target plan.
            src_cached = self.device.node.memory.src_cached(n)
            try:
                if run is None:
                    yield from self.store.write_plan(
                        wtarget, part.region, target_disp, plan, payload,
                        src_cached)
                else:
                    yield from self.store.deliver_with_retry(
                        wtarget, lambda: self.store.write_run(
                            part.region, run, payload, src_cached))
            except TransferFault:
                strategy, _ = yield from self._fallback(
                    wtarget, lambda: self._emulated_put(
                        wtarget, target_disp, payload, plan))
            else:
                self._dirty_targets.add(wtarget)
        else:
            yield from self._emulated_put(wtarget, target_disp, payload, plan)
        self.counters["direct_puts" if strategy == OSCStrategy.DIRECT
                      else "emulated_puts"] += 1
        self.device._trace("osc.put.end", target=wtarget, strategy=strategy)

    def _strategy(self, op: str, run, plan, disp: int, nbytes: int,
                  part: WinPart) -> str:
        """How a remote put or get reaches ``part``: the verdict (which the
        policy may force) for a target this rank maps or not (private
        memory, a degraded target)."""
        return self._verdict(op, run, plan, disp, nbytes, part.world_rank,
                             part.shared and part.world_rank not in self._degraded)

    def _fallback(self, wtarget: int, emulated):
        """A direct access raised ``TransferFault``: a window segment was
        revoked mid-epoch (the recovery ladder raises it for nothing
        else).  The target degrades to emulation (sticky) and the
        operation is redone as ``emulated()``.  Returns ``(strategy,
        value)``."""
        self._degraded.add(wtarget)
        self.device.recovery["fallbacks"] += 1
        self.device._trace("recover.fallback.begin", peer=wtarget,
                           action="emulate")
        value = yield from emulated()
        self.device._trace("recover.fallback.end", peer=wtarget)
        return OSCStrategy.EMULATED, value

    def _emulated_put(self, wtarget, target_disp, payload, plan):
        """Ship one put to ``wtarget``'s handler, after the calls queued
        for it (call order)."""
        yield from self._ship(wtarget)
        n = payload.nbytes
        ack = Event(self.engine, "osc-put-ack")
        msg = OSCPut(self.state.win_id, self.world_rank, target_disp, payload,
                     ack, plan)
        # Ship the payload (a data transfer on the ring) + remote interrupt.
        yield from self.store.ship_emulated(
            wtarget, target_disp, n, msg,
            src_cached=self.device.node.memory.src_cached(n),
        )
        self._pending_acks.setdefault(wtarget, []).append(ack)

    def _ship(self, wtarget: int, keep: Optional[str] = None):
        """Ship the calls queued for ``wtarget``, unless there are none or
        they are ``keep`` calls (which the caller joins): puts as one
        emulated put, two or more packed first (one copy loop over their
        blocks); gets as one emulated get, whose bytes then fill the
        callers' buffers."""
        batch = self._batches.get(wtarget)
        if not batch or batch.kind == keep:
            return
        disp, run, plan, groups, data, outs = batch.take()
        if batch.kind == "put":
            if groups is not None:
                yield self.engine.timeout(self.device.node.memory.walk_cost(
                    groups, "copy", False))
            yield from self._emulated_put(wtarget, disp, data, plan)
            return
        data = yield from self._emulated_get(
            wtarget, disp, sum(out.nbytes for out in outs), run, plan)
        pos = 0
        for out in outs:
            out[:] = data[pos : pos + out.nbytes]
            pos += out.nbytes

    def get(self, nbytes: int, target: int, target_disp: int = 0,
            target_datatype: Optional[Datatype] = None, target_count: int = 1):
        """MPI_Get (DES generator): returns the fetched bytes, in a buffer
        that a batched get fills at the next completion point for
        ``target``."""
        part = self.part(target)
        wtarget = part.world_rank
        self.device._trace("osc.get.begin", target=wtarget, nbytes=nbytes)
        yield self.engine.timeout(self.config.osc_call_overhead)
        run, plan = resolve_target(part, target_disp, nbytes, target_datatype,
                                   target_count)

        if wtarget == self.world_rank:
            yield self.engine.timeout(
                self.device.node.memory.walk_cost([(nbytes, 1)], "copy", False))
            data = _load(part.local_view(), target_disp, plan, 0, nbytes)
            self.device._trace("osc.get.end", target=wtarget, strategy="local")
            return data

        strategy = self._strategy("get", run, plan, target_disp, nbytes, part)
        batched = strategy == OSCStrategy.BATCHED
        yield from self._ship(wtarget, keep="get" if batched else None)
        if batched:
            data = self._batches[wtarget].add("get", target_disp, nbytes,
                                              run, plan)
        elif strategy == OSCStrategy.DIRECT:
            # Transparent remote loads (the CPU stalls).
            try:
                data = yield from self.store.deliver_with_retry(
                    wtarget, lambda: self.store.read_run(part.region, run))
            except TransferFault:
                strategy, data = yield from self._fallback(
                    wtarget, lambda: self._emulated_get(
                        wtarget, target_disp, nbytes, run, plan))
        else:
            # Remote-put (shared) or emulation (private): the target
            # pushes into our response region.
            data = yield from self._emulated_get(wtarget, target_disp, nbytes,
                                                 run, plan)
        self.counters[_GET_COUNTERS[strategy]] += 1
        self.device._trace("osc.get.end", target=wtarget, strategy=strategy)
        return data

    def _emulated_get(self, wtarget, target_disp, nbytes, run, plan):
        if run is not None and run.stride == run.size:
            # One contiguous run: the response copies bytes, no pack loop.
            target_disp, plan = run.base, None

        def make_request(pos, n):
            done = Event(self.engine, "osc-get-done")
            msg = OSCGet(self.state.win_id, self.world_rank, target_disp, pos,
                         n, 0, done, plan)
            yield from self.store.request_emulated(wtarget, msg)
            return done

        return (yield from self.device.scheduler.fetch_via_response(
            nbytes, make_request))

    def accumulate(self, data, target: int, target_disp: int = 0,
                   op: str = "sum", datatype=None, fetch: bool = False,
                   target_datatype: Optional[Datatype] = None,
                   target_count: int = 1):
        """MPI_Accumulate / MPI_Get_accumulate: combine origin data into the
        target window.

        Always executed by the target's handler body (read-modify-write
        needs the target CPU; SCI has no remote atomics on commodity
        adapters).  With ``fetch=True`` behaves like MPI_Get_accumulate
        and returns the target's *previous* contents as ``datatype``
        elements (the call then blocks until applied).
        ``target_datatype``/``target_count`` describe a (possibly
        non-contiguous) target layout; the handler gathers / scatters
        along its packing plan and the fetched result is the previous
        contents in packed order.
        """
        from ..datatypes.basic import DOUBLE

        basic = datatype or DOUBLE
        if op != "replace" and not op_folds(op, basic.np_dtype):
            raise RMAError(f"accumulate op {op!r} is not defined on {basic.name}")
        payload = self._as_bytes(data)
        n = payload.nbytes
        part = self.part(target)
        wtarget = part.world_rank
        _, plan = resolve_target(part, target_disp, n, target_datatype,
                                 target_count)
        self.device._trace("osc.acc.begin", target=wtarget, nbytes=n, op=op)
        yield self.engine.timeout(self.config.osc_call_overhead)
        local = wtarget == self.world_rank
        ack = None if local else Event(self.engine, "osc-acc-ack")
        msg = OSCAccumulate(self.state.win_id, self.world_rank, target_disp,
                            payload, op, basic.np_dtype, ack, plan)
        if local:
            fetched = yield from self.osc_engine.serve(msg, local=True)
            self.counters["accumulates"] += 1
            self.device._trace("osc.acc.end", target=wtarget, strategy="local")
            return fetched if fetch else None
        yield from self._ship(wtarget)
        yield from self.store.ship_emulated(
            wtarget, target_disp, n, msg, src_cached=True
        )
        self.counters["accumulates"] += 1
        if fetch:
            fetched = yield ack
            self.device._trace("osc.acc.end", target=wtarget,
                               strategy="emulated")
            return fetched
        self._pending_acks.setdefault(wtarget, []).append(ack)
        self.device._trace("osc.acc.end", target=wtarget, strategy="emulated")
        return None

    def fetch_and_op(self, value, target: int, target_disp: int = 0,
                     op: str = "sum", datatype=None,
                     target_datatype: Optional[Datatype] = None,
                     target_count: int = 1):
        """MPI_Fetch_and_op: single-element get-accumulate (generator)."""
        result = yield from self.accumulate(
            value, target, target_disp, op=op, datatype=datatype, fetch=True,
            target_datatype=target_datatype, target_count=target_count,
        )
        return result

    # -- synchronization -------------------------------------------------------------------

    def _complete(self, wtargets, overhead: Optional[float] = None):
        """Finish the outstanding accesses to ``wtargets``: ship their
        queued calls, pay the sync call's ``overhead`` (if any) while the
        handlers run, then store barriers + emulation acks."""
        for wtarget in wtargets:
            yield from self._ship(wtarget)
        if overhead is not None:
            yield self.engine.timeout(overhead)
        for wtarget in sorted(self._dirty_targets.intersection(wtargets)):
            part = self.parts[wtarget]
            if part.shared:
                yield from self.store.store_barrier(part.region)
            self._dirty_targets.discard(wtarget)
        acks = [ack for w in wtargets for ack in self._pending_acks.pop(w, ())]
        if acks:
            yield self.engine.all_of(acks)

    def flush(self, target: Optional[int] = None):
        """MPI_Win_flush(_all): complete the outstanding accesses to every
        target (``target=None``) or to ``target`` alone now."""
        yield from self._complete(self.state.group if target is None
                                  else (self._world(target),))

    def fence(self):
        """MPI_Win_fence: complete all accesses, then synchronize everyone."""
        self.device._trace("osc.fence.begin")
        yield from self._complete(self.state.group, self.config.osc_call_overhead)
        yield from self.state.fence_barrier.enter(self.world_rank)
        self.device._trace("osc.fence.end")

    def post(self, origin_group: list[int]):
        """Expose the local window to ``origin_group`` (MPI_Win_post)."""
        yield self.engine.timeout(self.config.osc_call_overhead)
        for origin in origin_group:
            yield from self.device.send_ctrl(
                self._world(origin),
                OSCNotice(self.state.win_id, "post", self.world_rank),
            )

    def start(self, target_group: list[int]):
        """Begin an access epoch on ``target_group`` (MPI_Win_start)."""
        yield self.engine.timeout(self.config.osc_call_overhead)
        for target in target_group:
            yield self.state.notice_channel(
                self.world_rank, "post", self._world(target)
            ).get()

    def complete(self, target_group: list[int]):
        """End the access epoch (MPI_Win_complete)."""
        yield from self._complete(self.state.group)
        for target in target_group:
            yield from self.device.send_ctrl(
                self._world(target),
                OSCNotice(self.state.win_id, "complete", self.world_rank),
            )

    def wait(self, origin_group: list[int]):
        """End the exposure epoch (MPI_Win_wait)."""
        for origin in origin_group:
            yield self.state.notice_channel(
                self.world_rank, "complete", self._world(origin)
            ).get()

    def lock(self, target: int, exclusive: bool = True):
        """Passive-target lock (MPI_Win_lock).

        ``exclusive=False`` (MPI_LOCK_SHARED) admits concurrent shared
        holders; exclusive acquisition (MPI_LOCK_EXCLUSIVE) is granted
        FIFO, so it cannot be starved by a stream of readers (see
        :class:`~repro.smi.sync.SMIRWLock`).
        """
        wtarget = self._world(target)
        self.device._trace("osc.lock.begin", target=wtarget,
                           exclusive=exclusive)
        yield self.engine.timeout(self.config.osc_call_overhead)
        yield from self.state.locks[wtarget].acquire(
            self.world_rank, exclusive=exclusive
        )
        self._held_locks[wtarget] = exclusive
        self.device._trace("osc.lock.end", target=wtarget)

    def unlock(self, target: int):
        """Release the passive-target lock after completing accesses."""
        wtarget = self._world(target)
        self.device._trace("osc.unlock.begin", target=wtarget)
        yield from self._complete(self.state.group)
        try:
            exclusive = self._held_locks.pop(wtarget)
        except KeyError:
            raise RMAError(
                f"unlock of target {target} without a matching lock"
            ) from None
        yield from self.state.locks[wtarget].release(
            self.world_rank, exclusive=exclusive
        )
        self.device._trace("osc.unlock.end", target=wtarget)


def win_create(comm: "Communicator", size_bytes: int, shared: bool = True):
    """Collective window creation (generator); every rank of ``comm`` must
    call it.

    ``shared=True``: window memory comes from an SCI shared segment
    (the MPI_Alloc_mem path).  ``shared=False``: private process memory —
    every remote access will be emulated.
    """
    if size_bytes < 0:
        raise RMAError(f"negative window size {size_bytes}")
    world = comm.world
    device = comm.device
    engine = comm.engine
    _osc_engine(device)

    if not hasattr(world, "_win_registry"):
        world._win_registry = {}
        world._win_counters = {}
    counter_key = (comm.context, comm.world_rank)
    seq = world._win_counters.get(counter_key, 0)
    world._win_counters[counter_key] = seq + 1
    win_id = (comm.context, seq)
    if win_id not in world._win_registry:
        world._win_registry[win_id] = WinGlobal(world, win_id, comm.group)
    state: WinGlobal = world._win_registry[win_id]
    device._osc_engine.windows[win_id] = state

    if shared:
        region = world.smi.create_region(
            comm.world_rank, size_bytes, label=f"win{win_id}-w{comm.world_rank}"
        )
        part = WinPart(comm.world_rank, True, size_bytes, region=region)
    else:
        buf = device.node.space.alloc(
            size_bytes, label=f"win{win_id}-w{comm.world_rank}"
        )
        part = WinPart(comm.world_rank, False, size_bytes, buffer=buf)
    state.parts[comm.world_rank] = part

    # Window creation is collective; everyone must have registered a part.
    yield engine.timeout(device.config.osc_call_overhead)
    yield from comm.barrier()
    return Win(state, comm)
