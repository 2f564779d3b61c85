"""SCI shared-memory segments: export, import, and remote access.

On real SCI hardware a process exports a memory segment through the SCI
driver; remote processes *import* it, mapping it into their address space,
after which plain CPU loads/stores reach the remote memory.  This module
reproduces that model:

* :class:`SegmentDirectory` plays the role of the SCI driver / segment
  manager (export, lookup, import).
* :class:`ImportedSegment` is the origin-side mapping and the one access
  object above the fabric (SMI hands it out per rank); its ``write``,
  ``read`` and ``barrier`` methods are DES generators that charge fabric
  costs and move real bytes.

Same-node imports short-circuit to the local memory model — the symmetry
the paper exploits through the SMI library ("all of the work ... can
equally be applied to intra-node shared memory communication").
"""

from __future__ import annotations

from itertools import count as _counter

import numpy as np

from ...memlib import Buffer, strided_view
from ..memory import MemorySystem
from ..node import Node
from .fabric import SCIFabric
from .transactions import AccessRun

__all__ = [
    "SCISegment",
    "ImportedSegment",
    "SegmentDirectory",
    "SegmentError",
    "SegmentUnmappedError",
    "scatter_run",
    "gather_run",
    "local_run_cost",
]


class SegmentError(RuntimeError):
    """Segment management error (bad export/import/bounds)."""


class SegmentUnmappedError(SegmentError):
    """An access went through a mapping whose segment was revoked
    (driver teardown, peer restart — the fault plan's *unmap* event).
    Recoverable by importing the segment afresh."""


def _run_view(mem: np.ndarray, run: AccessRun) -> np.ndarray:
    """(count, size) strided view of ``mem`` covering an access run."""
    try:
        return strided_view(mem, run.base, run.count, run.size, run.stride)
    except ValueError as exc:
        raise SegmentError(f"access run outside segment: {exc}") from exc


def scatter_run(mem: np.ndarray, run: AccessRun, data: np.ndarray) -> None:
    """Scatter ``data`` (block-order contiguous bytes) into a strided run."""
    if data.nbytes != run.total_bytes:
        raise SegmentError(
            f"payload of {data.nbytes} B does not match run of {run.total_bytes} B"
        )
    if run.total_bytes == 0:
        return
    view = _run_view(mem, run)
    view[:] = data.reshape(run.count, run.size)


def gather_run(mem: np.ndarray, run: AccessRun) -> np.ndarray:
    """Gather a strided run into block-order contiguous bytes."""
    if run.total_bytes == 0:
        return np.empty(0, dtype=np.uint8)
    view = _run_view(mem, run)
    return np.ascontiguousarray(view).reshape(-1)


def local_run_cost(memory: MemorySystem, run: AccessRun) -> float:
    """A store or load along ``run`` inside one node: a warm block-wise
    copy walk, one block when the run is contiguous.  What a local
    :class:`ImportedSegment` access and the one-sided verdict charge."""
    if run.stride == run.size:
        return memory.walk_cost([(run.total_bytes, 1)], "copy", False)
    return memory.walk_cost([(run.size, run.count)], "copy", False)


class SCISegment:
    """An exported shared segment living in its owner node's memory."""

    def __init__(self, seg_id: int, node: Node, buffer: Buffer):
        self.seg_id = seg_id
        self.node = node
        self.buffer = buffer
        #: Revocation epoch: bumped every time the export is torn down
        #: and re-established; imports taken before a bump are stale.
        self.revoked = 0

    def revoke(self) -> None:
        """Invalidate every existing import (fault injection / teardown)."""
        self.revoked += 1

    @property
    def nbytes(self) -> int:
        return self.buffer.nbytes

    def local_view(self) -> np.ndarray:
        """The owner's direct view of the segment."""
        return self.buffer.read()

    def __repr__(self) -> str:
        return f"<SCISegment {self.seg_id} @node{self.node.node_id} {self.nbytes} B>"


class ImportedSegment:
    """An origin-side mapping of a (possibly remote) exported segment."""

    def __init__(self, fabric: SCIFabric, origin: Node, segment: SCISegment):
        self.fabric = fabric
        self.origin = origin
        self.segment = segment
        self.is_local = origin.node_id == segment.node.node_id
        #: Revocation epoch at import time; a later revoke makes us stale.
        self.epoch = segment.revoked

    @property
    def nbytes(self) -> int:
        return self.segment.nbytes

    @property
    def mapped(self) -> bool:
        """Is this mapping still valid (segment not revoked since import)?"""
        return self.is_local or self.segment.revoked <= self.epoch

    def ensure_mapped(self) -> None:
        """Consult the fault plan, then validate the mapping.

        Remote accesses go through here: an installed
        :class:`~repro.hardware.sci.faults.FaultPlan` may revoke the
        segment at this very access (the *unmap* event), and a stale
        mapping raises :class:`SegmentUnmappedError` either way.
        """
        if self.is_local:
            return
        plan = self.fabric.fault_plan
        if plan is not None and plan.draw_unmap(self.segment):
            self.segment.revoke()
        if not self.mapped:
            raise SegmentUnmappedError(
                f"segment {self.segment.seg_id} was revoked "
                f"(import epoch {self.epoch} < {self.segment.revoked})"
            )

    def _check_run(self, run: AccessRun) -> None:
        if run.count and run.size:
            end = run.base + (run.count - 1) * run.stride + run.size
            if run.base < 0 or end > self.nbytes:
                raise SegmentError(
                    f"access run [{run.base}, {end}) outside segment of "
                    f"{self.nbytes} B"
                )

    # -- write ------------------------------------------------------------------

    def write(
        self,
        data: np.ndarray,
        run: AccessRun,
        src_cached: bool = True,
    ):
        """Write ``data`` (block-order bytes) into the segment along ``run``.

        Remote path: transparent PIO stores, costed by the write-combine /
        stream-buffer model, sharing ring bandwidth.  Local path: a plain
        memory copy costed by the cache model.
        """
        self._check_run(run)
        if data.dtype != np.uint8:
            data = data.reshape(-1).view(np.uint8)
        if data.nbytes != run.total_bytes:
            raise SegmentError(
                f"payload {data.nbytes} B vs run {run.total_bytes} B"
            )
        snapshot = np.array(data, copy=True)  # data leaves the origin now
        if self.is_local:
            # Local copies share the node's memory bus with concurrent
            # copies (the SMP scaling effect of the paper's Fig. 12).
            yield from self.origin.bus_transfer(
                self.fabric.engine, run.total_bytes,
                local_run_cost(self.origin.memory, run))
        else:
            self.ensure_mapped()
            yield from self.fabric.pio_write(
                self.origin.node_id, self.segment.node.node_id, run,
                src_cached=src_cached)
        scatter_run(self.segment.local_view(), run, snapshot)

    # -- read -------------------------------------------------------------------

    def read(self, run: AccessRun):
        """Read along ``run``; returns block-order bytes (as of completion)."""
        self._check_run(run)
        if self.is_local:
            yield from self.origin.bus_transfer(
                self.fabric.engine, run.total_bytes,
                local_run_cost(self.origin.memory, run))
        else:
            self.ensure_mapped()
            yield from self.fabric.pio_read(
                self.origin.node_id, self.segment.node.node_id, run)
        return gather_run(self.segment.local_view(), run)

    def barrier(self):
        """Store barrier: all previous writes are visible at the owner."""
        if self.is_local:
            return
            yield  # pragma: no cover - generator marker
        yield from self.fabric.store_barrier(
            self.origin.node_id, self.segment.node.node_id
        )


class SegmentDirectory:
    """The segment manager (the SCI driver's role)."""

    def __init__(self, fabric: SCIFabric):
        self.fabric = fabric
        self._segments: dict[int, SCISegment] = {}
        self._ids = _counter()
        #: Driver-level counters (``segments.*`` in the metrics registry).
        self.counters = {"exports": 0, "imports": 0}

    def export(self, node: Node, buffer: Buffer) -> SCISegment:
        """Register a memory range of ``node`` for remote access."""
        if buffer.space is not node.space:
            raise SegmentError("buffer does not belong to the exporting node")
        seg = SCISegment(next(self._ids), node, buffer)
        self._segments[seg.seg_id] = seg
        self.counters["exports"] += 1
        return seg

    def lookup(self, seg_id: int) -> SCISegment:
        try:
            return self._segments[seg_id]
        except KeyError:
            raise SegmentError(f"unknown segment id {seg_id}") from None

    def import_segment(self, origin: Node, segment: SCISegment) -> ImportedSegment:
        """Map an exported segment into ``origin``'s reach."""
        if segment.seg_id not in self._segments:
            raise SegmentError(f"segment {segment.seg_id} was never exported")
        self.counters["imports"] += 1
        return ImportedSegment(self.fabric, origin, segment)
