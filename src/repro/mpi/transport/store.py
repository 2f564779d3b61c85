"""RemoteStore: the single primitive that moves payload bytes off-rank.

The paper's central mechanism is one and the same for every communication
mode: the CPU stores data *into mapped remote memory* (transparent PIO
writes), falling back to an emulated delivery — a control message plus a
remote interrupt invoking a handler at the target — only where no mapping
exists (Sec. 4.2).  The seed implementation had four copies of that
dichotomy (pt2pt chunk writes, eager-slot writes, OSC direct puts, OSC
emulation shipping); :class:`RemoteStore` is the one place left that
touches the fabric on behalf of the MPI layers.

Every method is a DES generator charging the same costs the scattered
seed paths charged; none of them changes simulated timing.  The fabric's
errors reach :meth:`RemoteStore.deliver_with_retry` untranslated, and it
alone decides what each one means.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any

import numpy as np

from ...hardware.sci.faults import SCITransientError, TornTransferError
from ...hardware.sci.segments import SegmentUnmappedError
from ...hardware.sci.transactions import AccessRun
from ..errors import TransferAborted, TransferFault
from .policy import TransferMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...smi.regions import SharedRegion
    from ..flatten import PackPlan
    from ..pt2pt.engine import RankDevice

__all__ = ["RemoteStore"]


class RemoteStore:
    """One rank's interface for storing bytes into another rank's memory."""

    def __init__(self, device: "RankDevice"):
        self.device = device

    # -- recovery (the bounded-retransmission state machine) -----------------------

    def deliver_with_retry(self, peer: int, make_attempt, on_unmap=None,
                           on_torn=None):
        """Run ``make_attempt()`` (a fresh DES generator per call) until it
        succeeds, with bounded exponential-backoff retransmission.

        The one place SCI faults are classified; attempts raise them
        untranslated.  A ``SegmentUnmappedError`` is repaired by
        ``on_unmap()`` between attempts, or escapes as
        ``TransferFault(unmapped=True)`` when none is given.  A
        ``TornTransferError`` with an intact prefix resumes when
        ``on_torn(delivered)`` is given: it moves the caller's resume
        point past the prefix and returns the span attributes, and the
        next attempt sends the tail only.  Any other lost transfer is
        retransmitted whole.  Gives up with
        :class:`~repro.mpi.errors.TransferAborted` after
        ``RecoveryPolicy.max_retransmits`` failed retries.
        """
        device = self.device
        recovery = device.policy.recovery
        attempt = 0
        while True:
            try:
                result = yield from make_attempt()
            except (SegmentUnmappedError, TornTransferError,
                    SCITransientError) as fault:
                attempt += 1
                if attempt > recovery.max_retransmits:
                    device.recovery["aborts"] += 1
                    raise TransferAborted(
                        f"transfer to rank {peer} still failing after "
                        f"{recovery.max_retransmits} retransmissions"
                    ) from fault
                if isinstance(fault, SegmentUnmappedError):
                    if on_unmap is None:
                        raise TransferFault(str(fault), unmapped=True) from fault
                    device.recovery["remaps"] += 1
                    device._trace("recover.fallback.begin", peer=peer,
                                  action="remap")
                    on_unmap()
                    yield device.engine.timeout(recovery.remap_cost)
                    device._trace("recover.fallback.end", peer=peer)
                    continue
                if (isinstance(fault, TornTransferError) and fault.delivered
                        and on_torn and recovery.resume_torn):
                    device.recovery["resumes"] += 1
                    device._trace("recover.resume.begin", peer=peer,
                                  **on_torn(fault.delivered))
                    end = "recover.resume.end"
                else:
                    device.recovery["retries"] += 1
                    device._trace("recover.retry.begin", peer=peer,
                                  attempt=attempt)
                    end = "recover.retry.end"
                yield device.engine.timeout(recovery.backoff(attempt))
                device._trace(end, peer=peer)
                continue
            return result

    # -- packet-buffer writes (pt2pt) ----------------------------------------------

    def write_packed(self, dst: int, region: "SharedRegion", offset: int,
                     data: np.ndarray, mode: str,
                     groups: list[tuple[int, int]], src_cached: bool, land):
        """Ship ``data`` to rank ``dst`` as a write into ``region[offset:]``.

        Remote: transparent PIO stores (or the DMA engine), costed by the
        transfer technique and by ``region`` (its mapping, the offset's
        alignment).  Local: the pack loop / protocol copy *is* the
        delivery.  The bytes go to ``land(offset, data)``: an eager slot,
        or the rendezvous receive's destination (``RndvAck.land``).

        Injected fabric faults propagate to :meth:`deliver_with_retry`; a
        torn transfer lands its intact prefix first (no control packet was
        posted yet, so the receive cannot complete on it), and the caller
        resumes at byte ``delivered``.
        """
        device = self.device
        n = data.nbytes
        if not device.smi.same_node(device.rank, dst):
            region.handle(device.rank).ensure_mapped()
            try:
                if mode == TransferMode.DMA:
                    yield from device.world.smi.fabric.dma_transfer(
                        device.node.node_id, device.smi.node_of(dst).node_id, n
                    )
                else:
                    duration = device.scheduler.chunk_write_duration(
                        mode, offset, n, groups, src_cached
                    )
                    yield from device.world.smi.fabric.transfer_raw(
                        device.node.node_id, device.smi.node_of(dst).node_id,
                        n, duration, tearable=True,
                    )
            except TornTransferError as exc:
                land(offset, data[: exc.delivered])
                raise
        elif mode == TransferMode.DIRECT:
            yield device.engine.timeout(
                device.scheduler.chunk_walk(groups, "ff", True))
        else:
            yield device.engine.timeout(
                device.scheduler.chunk_walk([(n, 1)], "copy", True))
        land(offset, data)

    # -- direct one-sided access ------------------------------------------------------

    def write_plan(self, dst: int, region: "SharedRegion", disp: int,
                   plan: "PackPlan", data: np.ndarray, src_cached: bool):
        """Direct typed put: :meth:`write_packed` streams the packed
        ``data`` through ``plan`` into the window ``region`` at ``disp``
        with direct_pack_ff stores, one rendezvous chunk at a time.  A
        faulted chunk is rewritten whole (idempotent); a revoked window
        segment raises ``TransferFault(unmapped=True)``.  On one node each
        chunk is a block-wise copy on the node's memory bus, as any direct
        local store is (``ImportedSegment.write``)."""
        device = self.device
        view, step = region.local_view(), device.config.rendezvous_chunk
        land = partial(plan.execute_unpack, view, disp)
        for pos in range(0, data.nbytes, step):
            part = data[pos : pos + step]
            groups = plan.groups_in_range(pos, part.nbytes)
            if device.smi.same_node(device.rank, dst):
                yield from device.node.bus_transfer(device.engine, part.nbytes,
                    device.scheduler.chunk_walk(groups, "copy", False))
                land(pos, part)
                continue
            yield from self.deliver_with_retry(dst, lambda: self.write_packed(
                dst, region, pos, part, TransferMode.DIRECT, groups,
                src_cached, land))

    def write_run(self, region: "SharedRegion", run: AccessRun,
                  data: np.ndarray, src_cached: bool):
        """Direct put: transparent remote stores along a strided run (a
        revoked window segment raises ``SegmentUnmappedError``)."""
        return region.handle(self.device.rank).write(data, run,
                                                     src_cached=src_cached)

    def read_run(self, region: "SharedRegion", run: AccessRun):
        """Direct get: transparent remote loads (the CPU stalls per txn)."""
        return region.handle(self.device.rank).read(run)

    def store_barrier(self, region: "SharedRegion"):
        """All previous direct stores into ``region`` are visible at the owner."""
        return region.handle(self.device.rank).barrier()

    # -- emulated delivery -----------------------------------------------------------

    def ship_emulated(self, wtarget: int, dst_offset: int, nbytes: int,
                      msg: Any, src_cached: bool):
        """Deliver an emulated operation carrying ``nbytes`` of payload.

        The payload travels as one contiguous remote write into the
        target's staging memory, followed by a remote interrupt that kicks
        the target's handler; intra-node it is a copy into the target's
        staging memory on the node's shared memory bus.
        ``msg`` lands in the target's service queue either way.
        """
        device = self.device
        if not device.smi.same_node(device.rank, wtarget):
            fabric = device.world.smi.fabric
            src, dst = device.node.node_id, device.smi.node_of(wtarget).node_id
            duration = device.scheduler.chunk_write_duration(
                TransferMode.CONTIGUOUS, dst_offset, nbytes, [(nbytes, 1)],
                src_cached,
            )
            yield from self.deliver_with_retry(wtarget, partial(
                fabric.transfer_raw, src, dst, nbytes, duration))
            yield from fabric.post_interrupt(src, dst)
        else:
            yield from device.node.bus_transfer(
                device.engine, nbytes,
                device.node.memory.walk_cost([(nbytes, 1)], "copy", False))
        device._trace("store.emulated", target=wtarget, nbytes=nbytes,
                      message=type(msg).__name__)
        device.world.device(wtarget).service.try_put(msg)

    def request_emulated(self, wtarget: int, msg: Any):
        """Send a payload-free emulated request (control packet + interrupt)."""
        device = self.device
        yield from device.send_ctrl(wtarget, msg)
        if not device.smi.same_node(device.rank, wtarget):
            yield from device.world.smi.fabric.post_interrupt(
                device.node.node_id, device.smi.node_of(wtarget).node_id
            )

    def respond_remote_put(self, origin: int, response: "SharedRegion",
                           offset: int, data: np.ndarray):
        """Remote-put response: this rank (the *target* of a get) writes
        window data into the origin's response region (Sec. 4.2 — writes
        are fast on SCI, so the target pushes instead of the origin
        pulling)."""
        device = self.device
        n = data.nbytes
        if device.smi.same_node(device.rank, origin):
            yield from device.node.bus_transfer(
                device.engine, n, device.node.memory.walk_cost([(n, 1)], "copy", False))
            response.local_view()[offset : offset + n] = data
        else:
            def attempt():
                handle = response.handle(device.rank)
                yield from handle.write(
                    data, AccessRun.contiguous(offset, n), src_cached=False
                )
                yield from handle.barrier()

            yield from self.deliver_with_retry(
                origin, attempt, on_unmap=lambda: response.remap(device.rank)
            )
