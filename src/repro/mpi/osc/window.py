"""MPI-2 one-sided communication on SCI (Sec. 4 of the paper).

A *window* exposes a contiguous memory area of each rank of a
communicator to every other rank of that communicator.  SCI-MPICH's
implementation strategy, reproduced here:

* window memory allocated from SCI shared segments (``shared=True``, the
  ``MPI_Alloc_mem`` path) is accessed **directly**: puts are transparent
  remote stores, small gets are transparent remote loads;
* because SCI remote reads are much slower than writes, gets larger than
  ``remote_put_threshold`` are converted into a **remote-put**: the target
  writes the data into the origin's response region;
* windows in **private** process memory are accessed by **emulation**: a
  control message plus remote interrupt invoke a handler at the target
  that accepts or delivers the data;
* ``MPI_Accumulate`` always runs at the target (read-modify-write needs
  the target CPU);
* synchronization: fence (store barriers + SMI barrier), general active
  target (post/start/complete/wait) and passive target (lock/unlock with
  SMI shared-memory locks).

Strategy selection (direct vs. remote-put vs. emulated) comes from the
world's :class:`~repro.mpi.transport.policy.TransferPolicy`; every payload
byte moves through the device's
:class:`~repro.mpi.transport.store.RemoteStore` /
:class:`~repro.mpi.transport.scheduler.TransferScheduler`.

Ranks in the public :class:`Win` API are communicator-local; internal
messages carry world ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ...sim import Channel, Event
from ...smi import SMIBarrier, SMIRWLock
from ..coll.collectives import OPS
from ..datatypes.base import Datatype
from ..errors import RMAError, TransferFault
from ..flatten import get_plan
from ..pt2pt.costs import pack_cost_direct
from ..transport import OSCStrategy, TransferMode, resolve_target_run
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
            return self._serve(msg)
        raise RMAError(f"unexpected OSC message {msg!r}")

    def _serve(self, msg):
        device = self.device
        params = device.node.params
        win = self.windows[msg.win_id]
        part = win.parts[device.rank]
        # Handler dispatch after the remote interrupt.
        yield device.engine.timeout(params.adapter.handler_dispatch)

        if isinstance(msg, OSCPut):
            n = msg.data.nbytes
            yield device.engine.timeout(
                device.node.memory.copy_cost(n).duration
            )
            if msg.apply is not None:
                msg.apply(part.local_view())
            else:
                part.local_view()[msg.disp : msg.disp + n] = msg.data
            msg.ack.succeed()
            return

        if isinstance(msg, OSCAccumulate):
            n = msg.data.nbytes
            view = part.local_view()
            if msg.plan is not None:
                # Non-contiguous target layout: gather the previous
                # contents along the packing plan, combine element-wise,
                # scatter the result back (two ff pack loops on top of
                # the read-modify-write).
                groups = device.scheduler.plan_groups(msg.plan)
                yield device.engine.timeout(
                    device.node.memory.copy_cost(n).duration * 1.5
                    + 2 * pack_cost_direct(device.node.memory, groups,
                                           device.config)
                )
                fetched = msg.plan.execute_pack(view, msg.disp)
                typed_prev = fetched.view(msg.np_dtype)
                typed_incoming = msg.data.view(msg.np_dtype)
                if msg.op == "replace":
                    result = typed_incoming
                else:
                    result = OPS[msg.op](typed_prev, typed_incoming)
                msg.plan.execute_unpack(
                    view, msg.disp, 0,
                    np.ascontiguousarray(result).view(np.uint8),
                )
                msg.ack.succeed(fetched)
                return
            target = view[msg.disp : msg.disp + n]
            typed_target = target.view(msg.np_dtype)
            typed_incoming = msg.data.view(msg.np_dtype)
            yield device.engine.timeout(
                device.node.memory.copy_cost(n).duration * 1.5
            )
            fetched = np.array(typed_target, copy=True)
            if msg.op == "replace":
                typed_target[:] = typed_incoming
            else:
                typed_target[:] = OPS[msg.op](fetched, typed_incoming)
            msg.ack.succeed(fetched)
            return

        assert isinstance(msg, OSCGet)
        # Remote-put: write the window data into the origin's response
        # region ("the target process writes the data into the origin
        # process' address space", Sec. 4.2).
        view = part.local_view()
        if msg.plan is None:
            start = msg.disp + msg.pos
            data = np.array(view[start : start + msg.nbytes], copy=True)
        else:
            # Non-contiguous target layout: pack this chunk's stream range
            # along the plan (the ff loop of the accumulate handler's
            # gather).
            groups = device.scheduler.chunk_groups(
                TransferMode.DIRECT, msg.plan, msg.pos, msg.nbytes)
            yield device.engine.timeout(
                pack_cost_direct(device.node.memory, groups, device.config)
            )
            data = msg.plan.execute_pack(view, msg.disp, msg.pos, msg.nbytes)
        origin_device = device.world.device(msg.origin)
        yield from device.store.respond_remote_put(
            msg.origin, origin_device.response_region, msg.response_offset, data
        )
        msg.done.succeed()


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
        self.policy = self.device.policy
        self.store = self.device.store
        #: World ranks touched by direct stores since the last sync (need
        #: a store barrier at the synchronization point).
        self._dirty_targets: set[int] = set()
        #: Outstanding emulated-operation acknowledgements.
        self._pending_acks: list[Event] = []
        #: Mode of each held passive-target lock (world rank -> exclusive).
        self._held_locks: dict[int, bool] = {}
        #: World ranks whose window segment became unmappable mid-epoch:
        #: direct access is permanently degraded to the emulated path for
        #: them (the :meth:`TransferPolicy.degraded_strategy` decision).
        self._degraded: set[int] = set()
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

    def _check(self, part: WinPart, disp: int, nbytes: int) -> None:
        if disp < 0 or disp + nbytes > part.nbytes:
            raise RMAError(
                f"RMA access [{disp}, {disp + nbytes}) outside window part of "
                f"{part.nbytes} B at world rank {part.world_rank}"
            )

    def _check_layout(self, part: WinPart, disp: int, run,
                      target_datatype: Optional[Datatype],
                      target_count: int) -> None:
        """Bounds-check the target footprint: the strided run, or the byte
        interval all ``target_count`` instances of the layout touch."""
        if run is not None:
            end = (
                run.base + (run.count - 1) * run.stride + run.size
                if run.count else run.base
            )
            self._check(part, run.base, max(0, end - run.base))
        else:
            low, high = get_plan(target_datatype.flattened, target_count).bounds
            self._check(part, disp + low, high - low)

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

        run = resolve_target_run(target_disp, n, target_datatype, target_count)
        self._check_layout(part, target_disp, run, target_datatype, target_count)

        if wtarget == self.world_rank:
            # Local window: a plain store.
            yield self.engine.timeout(self.device.node.memory.copy_cost(n).duration)
            if run is None:
                plan = get_plan(target_datatype.flattened, target_count)
                plan.execute_unpack(part.local_view(), target_disp, 0, payload)
            else:
                from ...hardware.sci.segments import scatter_run
                scatter_run(part.local_view(), run, payload)
            self.device._trace("osc.put.end", target=wtarget, strategy="local")
            return

        strategy = self.policy.osc_op_strategy("put", n, part.shared,
                                               run is not None)
        if strategy == OSCStrategy.DIRECT and wtarget in self._degraded:
            strategy = self.policy.degraded_strategy(strategy)
        if strategy == OSCStrategy.DIRECT:
            # Direct path: transparent remote stores (retransmitted on
            # injected transient faults).
            def attempt():
                yield from self.store.write_run(
                    part.region, run, payload,
                    src_cached=self.policy.src_cached(n, self.device.node),
                )

            try:
                yield from self.store.deliver_with_retry(wtarget, attempt)
            except TransferFault as fault:
                if not fault.unmapped:
                    raise
                # Window segment revoked mid-epoch: degrade this target to
                # emulation (sticky) and redo the operation that way.
                strategy = self._degrade(wtarget)
                self.device._trace("recover.fallback.begin", peer=wtarget,
                                   action="emulate")
                yield from self._emulated_put(part, payload, wtarget,
                                              target_disp, target_datatype,
                                              target_count, run)
                self.device._trace("recover.fallback.end", peer=wtarget)
            else:
                self._dirty_targets.add(wtarget)
                self.counters["direct_puts"] += 1
        else:
            # Emulation (private window memory, or a target layout too
            # complex for a single strided store run).
            yield from self._emulated_put(part, payload, wtarget, target_disp,
                                          target_datatype, target_count, run)
        self.device._trace("osc.put.end", target=wtarget, strategy=strategy)

    def _degrade(self, wtarget: int) -> str:
        """Record the fallback decision for an unmappable target segment."""
        self._degraded.add(wtarget)
        self.device.recovery["fallbacks"] += 1
        return self.policy.degraded_strategy(OSCStrategy.DIRECT)

    def _emulated_put(self, part, payload, wtarget, target_disp,
                      target_datatype, target_count, run):
        n = payload.nbytes
        device = self.device
        ack = Event(self.engine, "osc-put-ack")
        plan = self._target_plan(n, target_datatype, target_count, run)
        msg = OSCPut(self.state.win_id, self.world_rank,
                     run.base if plan is None else target_disp, payload, ack)
        if plan is not None:
            # The handler scatters into the non-contiguous target layout.
            def apply(view, plan=plan, disp=target_disp, payload=payload):
                plan.execute_unpack(view, disp, 0, payload)

            msg.apply = apply
        # Ship the payload (a data transfer on the ring) + remote interrupt.
        yield from self.store.ship_emulated(
            wtarget, target_disp, n, msg,
            src_cached=self.policy.src_cached(n, device.node),
        )
        self._pending_acks.append(ack)
        self.counters["emulated_puts"] += 1

    def get(self, nbytes: int, target: int, target_disp: int = 0,
            target_datatype: Optional[Datatype] = None, target_count: int = 1):
        """MPI_Get (DES generator): returns the fetched bytes."""
        part = self.part(target)
        wtarget = part.world_rank
        self.device._trace("osc.get.begin", target=wtarget, nbytes=nbytes)
        yield self.engine.timeout(self.config.osc_call_overhead)
        run = resolve_target_run(target_disp, nbytes, target_datatype,
                                 target_count)
        self._check_layout(part, target_disp, run, target_datatype, target_count)

        if wtarget == self.world_rank:
            yield self.engine.timeout(self.device.node.memory.copy_cost(nbytes).duration)
            if run is None:
                plan = get_plan(target_datatype.flattened, target_count)
                data = plan.execute_pack(part.local_view(), target_disp)
            else:
                from ...hardware.sci.segments import gather_run
                data = gather_run(part.local_view(), run)
            self.device._trace("osc.get.end", target=wtarget, strategy="local")
            return data

        strategy = self.policy.osc_op_strategy("get", nbytes, part.shared,
                                               run is not None)
        if strategy != OSCStrategy.EMULATED and wtarget in self._degraded:
            strategy = self.policy.degraded_strategy(strategy)
        if strategy == OSCStrategy.DIRECT:
            # Small direct read: transparent remote loads (CPU stalls),
            # retransmitted on injected transient faults.
            def attempt():
                fetched = yield from self.store.read_run(part.region, run)
                return fetched

            try:
                data = yield from self.store.deliver_with_retry(wtarget, attempt)
            except TransferFault as fault:
                if not fault.unmapped:
                    raise
                strategy = self._degrade(wtarget)
                self.device._trace("recover.fallback.begin", peer=wtarget,
                                   action="emulate")
                data = yield from self._emulated_get(
                    part, nbytes, wtarget, target_disp, target_datatype,
                    target_count, run)
                self.device._trace("recover.fallback.end", peer=wtarget)
                self.counters["emulated_gets"] += 1
            else:
                self.counters["direct_gets"] += 1
        else:
            # Remote-put conversion (shared, large) or full emulation
            # (private): the target pushes into our response region.
            data = yield from self._emulated_get(
                part, nbytes, wtarget, target_disp, target_datatype,
                target_count, run)
            if strategy == OSCStrategy.REMOTE_PUT:
                self.counters["remote_puts"] += 1
            else:
                self.counters["emulated_gets"] += 1
        self.device._trace("osc.get.end", target=wtarget, strategy=strategy)
        return data

    def _emulated_get(self, part, nbytes, wtarget, target_disp,
                      target_datatype, target_count, run):
        plan = self._target_plan(nbytes, target_datatype, target_count, run)
        disp = run.base if plan is None else target_disp

        def make_request(pos, n):
            done = Event(self.engine, "osc-get-done")
            msg = OSCGet(self.state.win_id, self.world_rank, disp, pos, n, 0,
                         done, plan)
            yield from self.store.request_emulated(wtarget, msg)
            return done

        data = yield from self.device.scheduler.fetch_via_response(
            nbytes, make_request
        )
        return data

    @staticmethod
    def _target_plan(nbytes, target_datatype, target_count, run):
        """Packing plan the target's handler walks for a non-contiguous
        target layout; ``None`` when the bytes are one contiguous run."""
        if target_datatype is None or (run is not None
                                       and run.stride == run.size):
            return None
        plan = get_plan(target_datatype.flattened, target_count)
        if plan.total != nbytes:
            raise RMAError(
                f"origin data of {nbytes} B does not match target type of "
                f"{plan.total} B"
            )
        return plan

    def accumulate(self, data, target: int, target_disp: int = 0,
                   op: str = "sum", datatype=None, fetch: bool = False,
                   target_datatype: Optional[Datatype] = None,
                   target_count: int = 1):
        """MPI_Accumulate / MPI_Get_accumulate: combine origin data into the
        target window.

        Always executed by the target's handler (read-modify-write needs
        the target CPU; SCI has no remote atomics on commodity adapters).
        With ``fetch=True`` behaves like MPI_Get_accumulate and returns the
        target's *previous* contents (the call then blocks until applied).
        ``target_datatype``/``target_count`` describe a (possibly
        non-contiguous) target layout; the handler gathers / scatters
        along its packing plan and the fetched result is the previous
        contents in packed order.
        """
        from ..datatypes.basic import DOUBLE

        basic = datatype or DOUBLE
        if op != "replace" and op not in OPS:
            raise RMAError(f"unknown accumulate op {op!r}")
        payload = self._as_bytes(data)
        n = payload.nbytes
        part = self.part(target)
        wtarget = part.world_rank
        plan = None
        if target_datatype is not None:
            target_datatype.commit()
            plan = get_plan(target_datatype.flattened, target_count)
            if plan.total != n:
                raise RMAError(
                    f"origin data of {n} B does not match target type of "
                    f"{plan.total} B"
                )
            low, high = plan.bounds
            self._check(part, target_disp + low, high - low)
        else:
            self._check(part, target_disp, n)
        self.device._trace("osc.acc.begin", target=wtarget, nbytes=n, op=op)
        yield self.engine.timeout(self.config.osc_call_overhead)
        device = self.device
        if wtarget == self.world_rank:
            view = part.local_view()
            if plan is not None:
                groups = device.scheduler.plan_groups(plan)
                yield self.engine.timeout(
                    device.node.memory.copy_cost(n).duration * 1.5
                    + 2 * pack_cost_direct(device.node.memory, groups,
                                           self.config)
                )
                fetched = plan.execute_pack(view, target_disp)
                typed_prev = fetched.view(basic.np_dtype)
                incoming = payload.view(basic.np_dtype)
                result = (
                    incoming if op == "replace"
                    else OPS[op](typed_prev, incoming)
                )
                plan.execute_unpack(
                    view, target_disp, 0,
                    np.ascontiguousarray(result).view(np.uint8),
                )
            else:
                target_view = view[target_disp : target_disp + n]
                typed = target_view.view(basic.np_dtype)
                incoming = payload.view(basic.np_dtype)
                yield self.engine.timeout(
                    device.node.memory.copy_cost(n).duration * 1.5
                )
                fetched = np.array(typed, copy=True)
                if op == "replace":
                    typed[:] = incoming
                else:
                    typed[:] = OPS[op](fetched, incoming)
            self.counters["accumulates"] += 1
            self.device._trace("osc.acc.end", target=wtarget, strategy="local")
            return fetched if fetch else None
        ack = Event(self.engine, "osc-acc-ack")
        msg = OSCAccumulate(self.state.win_id, self.world_rank, target_disp,
                            payload, op, basic.np_dtype, ack, plan=plan)
        yield from self.store.ship_emulated(
            wtarget, target_disp, n, msg, src_cached=True
        )
        self.counters["accumulates"] += 1
        if fetch:
            fetched = yield ack
            self.device._trace("osc.acc.end", target=wtarget,
                               strategy="emulated")
            return fetched
        self._pending_acks.append(ack)
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

    def _complete_outstanding(self):
        """Finish every outstanding access: store barriers + emulation acks."""
        for wtarget in sorted(self._dirty_targets):
            part = self.parts[wtarget]
            if part.shared:
                yield from self.store.store_barrier(part.region)
        self._dirty_targets.clear()
        if self._pending_acks:
            yield self.engine.all_of(self._pending_acks)
            self._pending_acks.clear()

    def flush(self, target: Optional[int] = None):
        """MPI_Win_flush(_all): complete outstanding accesses now.

        ``target=None`` flushes everything; a specific local target flushes
        that target's direct stores (emulated-op acks are always drained —
        they are not tracked per target).
        """
        if target is None:
            yield from self._complete_outstanding()
            return
        wtarget = self._world(target)
        if wtarget in self._dirty_targets:
            part = self.parts[wtarget]
            if part.shared:
                yield from self.store.store_barrier(part.region)
            self._dirty_targets.discard(wtarget)
        if self._pending_acks:
            yield self.engine.all_of(self._pending_acks)
            self._pending_acks.clear()

    def fence(self):
        """MPI_Win_fence: complete all accesses, then synchronize everyone."""
        self.device._trace("osc.fence.begin")
        yield self.engine.timeout(self.config.osc_call_overhead)
        yield from self._complete_outstanding()
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
        yield from self._complete_outstanding()
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
        yield from self._complete_outstanding()
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
