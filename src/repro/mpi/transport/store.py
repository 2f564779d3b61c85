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
seed paths charged; none of them changes simulated timing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ...hardware.sci.faults import SCITransientError, TornTransferError
from ...hardware.sci.segments import SegmentUnmappedError
from ...hardware.sci.transactions import AccessRun
from ..errors import TransferAborted, TransferFault
from .policy import TransferMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...smi.regions import SharedRegion
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

        Attempts signal recoverable failures by raising
        :class:`~repro.mpi.errors.TransferFault`; ``on_unmap()`` (if given)
        repairs a revoked segment mapping between attempts, and
        ``on_torn(delivered)`` (if given) moves the caller's resume point
        past a torn transfer's intact prefix and returns the span
        attributes — the next attempt then sends the tail only.  Gives up
        with :class:`~repro.mpi.errors.TransferAborted` after
        ``RecoveryPolicy.max_retransmits`` failed retries.
        """
        device = self.device
        recovery = device.policy.recovery
        attempt = 0
        while True:
            try:
                result = yield from make_attempt()
            except TransferFault as fault:
                attempt += 1
                if attempt > recovery.max_retransmits:
                    device.recovery["aborts"] += 1
                    raise TransferAborted(
                        f"transfer to rank {peer} still failing after "
                        f"{recovery.max_retransmits} retransmissions"
                    ) from fault
                if fault.unmapped:
                    if on_unmap is None:
                        raise
                    device.recovery["remaps"] += 1
                    device._trace("recover.fallback.begin", peer=peer,
                                  action="remap")
                    on_unmap()
                    yield device.engine.timeout(recovery.remap_cost)
                    device._trace("recover.fallback.end", peer=peer)
                    continue
                if fault.delivered and on_torn and recovery.resume_torn:
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
                     groups: list[tuple[int, int]], src_cached: bool):
        """Ship ``data`` into ``region[offset:]`` at rank ``dst``.

        Remote: transparent PIO stores (or the DMA engine), costed by the
        transfer technique.  Local: the pack loop / protocol copy *is* the
        delivery.

        Injected fabric faults surface as
        :class:`~repro.mpi.errors.TransferFault`; a torn transfer places
        its intact prefix in the packet buffer first (the receiver never
        sees it — no control packet was posted yet), so the caller can
        resume at byte ``fault.delivered``.
        """
        device = self.device
        n = data.nbytes
        remote = not device.smi.same_node(device.rank, dst)
        if remote:
            try:
                region.handle(device.rank).ensure_mapped()
            except SegmentUnmappedError as exc:
                raise TransferFault(str(exc), unmapped=True) from exc
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
                delivered = exc.delivered
                view = region.local_view()
                view[offset : offset + delivered] = data[:delivered]
                raise TransferFault(str(exc), delivered=delivered) from exc
            except SCITransientError as exc:
                raise TransferFault(str(exc)) from exc
        else:
            if mode == TransferMode.DIRECT:
                yield device.engine.timeout(
                    device.scheduler.chunk_pack_cost(groups))
            else:
                yield device.engine.timeout(
                    device.scheduler.chunk_copy_cost(n))
        region.local_view()[offset : offset + n] = data

    # -- direct one-sided access ------------------------------------------------------

    def write_run(self, region: "SharedRegion", run: AccessRun,
                  data: np.ndarray, src_cached: bool):
        """Direct put: transparent remote stores along a strided run.

        Injected faults surface as :class:`TransferFault` — with
        ``unmapped=True`` when the window segment was revoked (the OSC
        layer then degrades to emulation).
        """
        handle = region.handle(self.device.rank)
        try:
            yield from handle.write(data, run, src_cached=src_cached)
        except SegmentUnmappedError as exc:
            raise TransferFault(str(exc), unmapped=True) from exc
        except (SCITransientError, TornTransferError) as exc:
            raise TransferFault(str(exc)) from exc

    def read_run(self, region: "SharedRegion", run: AccessRun):
        """Direct get: transparent remote loads (the CPU stalls per txn)."""
        handle = region.handle(self.device.rank)
        try:
            data = yield from handle.read(run)
        except SegmentUnmappedError as exc:
            raise TransferFault(str(exc), unmapped=True) from exc
        except (SCITransientError, TornTransferError) as exc:
            raise TransferFault(str(exc)) from exc
        return data

    def store_barrier(self, region: "SharedRegion"):
        """All previous direct stores into ``region`` are visible at the owner."""
        handle = region.handle(self.device.rank)
        yield from handle.barrier()

    # -- emulated delivery -----------------------------------------------------------

    def ship_emulated(self, wtarget: int, dst_offset: int, nbytes: int,
                      msg: Any, src_cached: bool):
        """Deliver an emulated operation carrying ``nbytes`` of payload.

        The payload travels as one contiguous remote write into the
        target's staging memory, followed by a remote interrupt that kicks
        the target's handler; intra-node it is a plain protocol copy.
        ``msg`` lands in the target's service queue either way.
        """
        device = self.device
        if not device.smi.same_node(device.rank, wtarget):
            duration = device.scheduler.chunk_write_duration(
                TransferMode.CONTIGUOUS, dst_offset, nbytes, [(nbytes, 1)],
                src_cached,
            )

            def attempt():
                try:
                    yield from device.world.smi.fabric.transfer_raw(
                        device.node.node_id,
                        device.smi.node_of(wtarget).node_id,
                        nbytes, duration,
                    )
                except SCITransientError as exc:
                    raise TransferFault(str(exc)) from exc

            yield from self.deliver_with_retry(wtarget, attempt)
            yield from device.world.smi.fabric.post_interrupt(
                device.node.node_id, device.smi.node_of(wtarget).node_id
            )
        else:
            yield device.engine.timeout(
                device.node.memory.copy_cost(nbytes).duration
            )
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
            yield device.engine.timeout(device.node.memory.copy_cost(n).duration)
            response.local_view()[offset : offset + n] = data
        else:
            def attempt():
                handle = response.handle(device.rank)
                try:
                    yield from handle.write(
                        data, AccessRun.contiguous(offset, n), src_cached=False
                    )
                    yield from handle.barrier()
                except SegmentUnmappedError as exc:
                    raise TransferFault(str(exc), unmapped=True) from exc
                except (SCITransientError, TornTransferError) as exc:
                    raise TransferFault(str(exc)) from exc

            yield from self.deliver_with_retry(
                origin, attempt, on_unmap=lambda: response.remap(device.rank)
            )
