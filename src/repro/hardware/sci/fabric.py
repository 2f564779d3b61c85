"""The SCI fabric: topology + bandwidth sharing + transaction costs.

:class:`SCIFabric` is the single facade the upper layers (SMI, MPI) talk
to.  All its operations are DES generators — a process performs a remote
write by ``yield from fabric.pio_write(...)`` and resumes when the data has
been delivered (sharing ring bandwidth with every concurrent transfer).

Data *placement* is the caller's job: the fabric deals in costs and
completion times, the segment layer (:mod:`repro.hardware.sci.segments`)
moves the actual bytes at completion.  This separation keeps the cost
models free of numpy plumbing and vice versa.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..params import DEFAULT_NODE, NodeParams
from .faults import FaultKind, FaultPlan, SCITransientError, TornTransferError
from .flows import FlowNetwork
from .topology import Route, Topology
from .transactions import (
    AccessRun,
    CostTable,
    dma_cost,
    remote_read_txns,
    remote_write_cost,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...sim import Engine

__all__ = ["SCIFabric", "SCIConnectionError", "FABRIC_RANK"]

#: Pseudo-rank fabric-level trace events are recorded under; the timeline
#: exporter (:mod:`repro.obs.timeline`) routes these to per-ringlet tracks.
FABRIC_RANK = -1


class SCIConnectionError(ConnectionError):
    """A transfer touched a failed node or a broken ring segment.

    The paper's Sec. 2 notes that SCI, despite the shared address space,
    is still a network of cables where nodes fail and links get unplugged,
    requiring connection monitoring in the MPI layer.
    """


class SCIFabric:
    """A cluster-wide SCI interconnect instance."""

    def __init__(
        self,
        engine: "Engine",
        topology: Topology,
        node_params: NodeParams = DEFAULT_NODE,
        per_node_params: Optional[dict[int, NodeParams]] = None,
        echo_ratio: float = 0.1,
    ):
        self.engine = engine
        self.topology = topology
        self.node_params = node_params
        self.per_node_params = dict(per_node_params or {})
        capacities = {
            seg: topology.link_capacity(seg, node_params.link.bandwidth)
            for seg in topology.segments()
        }
        self.network = FlowNetwork(engine, capacities, echo_ratio=echo_ratio)
        self._failed_nodes: set[int] = set()
        self._failed_segments: set[object] = set()
        #: Transient-error injection: probability that a transfer suffers
        #: retried transmissions (paper Sec. 2: "due to retried transfers
        #: after a transmission error ...").  Deterministic via the seed.
        self._error_rate = 0.0
        self._error_penalty = 0.35
        self._error_rng = None
        #: Detectable-fault injection (lost/torn transfers, unmaps,
        #: stalls) — None means a clean fabric.  See
        #: :class:`~repro.hardware.sci.faults.FaultPlan`.
        self.fault_plan: Optional[FaultPlan] = None
        #: Wired by :func:`repro.obs.trace.attach_tracer`: when set, every
        #: wire-level transfer is recorded as one complete event under
        #: :data:`FABRIC_RANK` (with start/duration/ringlet detail).
        self.tracer = None
        #: Wired by :meth:`repro.qos.QosManager.install`: when set, every
        #: wire operation's injection duration is shaped by the QoS lane
        #: rules (reserved traffic unshaped, best-effort throttled while
        #: a link's reserved share is active).  ``None`` — and an
        #: installed manager with no ACTIVE reservation — leave every
        #: duration untouched.
        self.qos = None
        #: PIO write costs by (origin node, target alignment, run geometry),
        #: and read transaction counts by ``("read", ...)`` of the same.
        self._pio_costs = CostTable()
        self._ringlet_ids: dict = {}
        #: Dense ringlet id -> human-readable track name, for topologies
        #: that name their rings (the timeline exporter falls back to
        #: ``ringlet <id>`` for ids not present here).
        self.ringlet_labels: dict[int, str] = {}
        #: Perf counters (transfers and bytes by kind), for tests/reports.
        self.counters: dict[str, int] = {
            "pio_writes": 0,
            "pio_reads": 0,
            "dma_transfers": 0,
            "barriers": 0,
            "interrupts": 0,
            "retries": 0,
            "faults": 0,
            "bytes_written": 0,
            "bytes_read": 0,
            "bytes_torn": 0,
        }

    # -- configuration / fault injection --------------------------------------

    def params_for(self, node: int) -> NodeParams:
        return self.per_node_params.get(node, self.node_params)

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    def set_error_rate(self, rate: float, penalty: float = 0.35,
                       seed: int = 0) -> None:
        """Enable transient transmission errors.

        Each transfer independently suffers retries with probability
        ``rate``; an affected transfer takes ``(1 + penalty)`` times as
        long (the link-level retransmissions).  Data still arrives
        complete and correct — SCI retries are transparent except for time
        and ordering, which is why store barriers exist (Sec. 2).
        Deterministic for a given seed.
        """
        import numpy as _np

        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"error rate must be in [0, 1], got {rate}")
        self._error_rate = rate
        self._error_penalty = penalty
        self._error_rng = _np.random.default_rng(seed) if rate > 0 else None

    def _retry_factor(self) -> float:
        """Duration multiplier for this transfer (>= 1)."""
        if self._error_rng is None or self._error_rate == 0.0:
            return 1.0
        if self._error_rng.random() < self._error_rate:
            self.counters["retries"] += 1
            return 1.0 + self._error_penalty
        return 1.0

    def install_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Attach (or clear) the deterministic fault-injection plan.

        Unlike :meth:`set_error_rate` (transparent hardware retries —
        slower, never lost), an installed plan injects *detectable*
        faults: lost and torn transfers, segment unmaps and node stalls,
        which the transport layer must actively recover from.
        """
        self.fault_plan = plan

    def _ringlet_of(self, route: Route) -> int:
        """Stable ringlet index of a route, for the per-ringlet trace tracks.

        A route that stays inside one ring belongs to the ring its data
        enters first; a route that crosses a switch belongs to the switch
        (its cross link's domain), so crossbar traffic gets its own
        track.  The topology names each link's domain via
        :meth:`~repro.hardware.sci.topology.Topology.ringlet_of`; keys are
        numbered densely in first-use order so ids are deterministic for a
        given program.
        """
        if not route.data_segments:
            return 0
        link = next(
            (seg for seg in route.data_segments
             if self.topology.link_kind(seg) == "cross"),
            route.data_segments[0],
        )
        key = self.topology.ringlet_of(link)
        if key in self._ringlet_ids:
            return self._ringlet_ids[key]
        rid = self._ringlet_ids[key] = len(self._ringlet_ids)
        label = self.topology.ringlet_label(key)
        if label is not None:
            self.ringlet_labels[rid] = label
        return rid

    def link_stats(self) -> dict[str, float]:
        """Aggregate per-link saturation/byte statistics for observability.

        Links are classified by the topology into ringlet-``local`` and
        ``cross``-switch; the split is what shows a switched fabric's
        crossbar saturating while ringlet-internal traffic stays cool.
        A load of 1.0 is a link driven exactly at capacity; links whose
        peak reached that are counted as saturated.
        """
        peaks = self.network.link_peak()
        by_kind: dict[str, float] = {"local": 0.0, "cross": 0.0}
        for link, peak in peaks.items():
            kind = self.topology.link_kind(link)
            if peak > by_kind.get(kind, 0.0):
                by_kind[kind] = peak
        return {
            "count": float(len(peaks)),
            "saturated": float(sum(1 for p in peaks.values() if p >= 1.0)),
            "peak_load": max(peaks.values(), default=0.0),
            "peak_local": by_kind["local"],
            "peak_cross": by_kind["cross"],
            "bytes": sum(self.network.link_bytes().values()),
        }

    def _trace(self, kind: str, **detail) -> None:
        if self.tracer is not None:
            self.tracer.record(self.engine.now, FABRIC_RANK, kind, **detail)

    def _trace_xfer(self, op: str, src: int, dst: int, nbytes: int,
                    start: float, route: Route,
                    end: Optional[float] = None) -> None:
        """One complete ``fabric.xfer`` record, ending now (or at ``end``:
        the stream windows replay transfers the clock never stops at)."""
        if self.tracer is not None:
            end = self.engine.now if end is None else end
            self.tracer.record(end, FABRIC_RANK, "fabric.xfer", op=op, src=src,
                               dst=dst, nbytes=nbytes, start=start,
                               duration=end - start,
                               ringlet=self._ringlet_of(route))

    def _draw_fault(self, src: int, dst: int, nbytes: int,
                    tearable: bool = False):
        if self.fault_plan is None:
            return None
        return self.fault_plan.draw_transfer(src, dst, nbytes, tearable)

    def _abort_transfer(self, src: int, route: Route, nbytes: int,
                        duration: float, fault: tuple[str, int]):
        """Charge the failed attempt's wire time, then raise the fault.

        Torn transfers charge only the delivered prefix; lost transfers
        went all the way out before the CRC check condemned them, so they
        charge the full attempt.
        """
        kind, delivered = fault
        params = self.params_for(src)
        charged = delivered if delivered else nbytes
        yield self.engine.timeout(route.hops * params.link.hop_latency)
        yield self.network.transfer(route, charged, nbytes / duration)
        self.counters["faults"] += 1
        self._trace("fabric.fault", fault=kind, src=src, nbytes=nbytes,
                    delivered=delivered, ringlet=self._ringlet_of(route))
        if kind == FaultKind.TORN:
            # The delivered prefix arrived for good (the resume continues
            # past it), but the completion path that bumps bytes_written
            # never runs for this attempt — account it here so delivered
            # bytes stay conserved: written + read + torn >= injected.
            self.counters["bytes_torn"] += delivered
            raise TornTransferError(delivered, nbytes)
        raise SCITransientError(
            f"transfer of {nbytes} B from node {src} lost (injected {kind} fault)"
        )

    def fail_node(self, node: int) -> None:
        self._failed_nodes.add(node)

    def restore_node(self, node: int) -> None:
        self._failed_nodes.discard(node)

    def fail_segment(self, segment: object) -> None:
        self._failed_segments.add(segment)

    def restore_segment(self, segment: object) -> None:
        self._failed_segments.discard(segment)

    def _check_route(self, src: int, dst: int) -> Route:
        if dst in self._failed_nodes:
            raise SCIConnectionError(f"target node {dst} is down")
        if src in self._failed_nodes:
            raise SCIConnectionError(f"origin node {src} is down")
        route = self.topology.route(src, dst)
        # A healthy fabric (the empty set) builds nothing per call.
        broken = self._failed_segments and self._failed_segments.intersection(
            route.data_segments + route.echo_segments
        )
        if broken:
            raise SCIConnectionError(f"broken segment(s) on route: {sorted(map(str, broken))}")
        return route

    def ping(self, src: int, dst: int) -> bool:
        """Connection-monitoring probe: is dst reachable from src?"""
        try:
            self._check_route(src, dst)
        except SCIConnectionError:
            return False
        return True

    # -- operations (DES generators) -------------------------------------------

    def pio_write(
        self,
        src: int,
        dst: int,
        run: AccessRun,
        src_cached: bool = True,
    ):
        """Transparent remote write of an access run; returns its WriteCost."""
        if src == dst:
            raise ValueError("pio_write is for remote targets; use the memory model locally")
        route = self._check_route(src, dst)
        params = self.params_for(src)
        cost = self._pio_costs.lookup(
            (src, run.base % params.write_alignment, run.size, run.stride,
             run.count, src_cached),
            lambda: remote_write_cost(run, params, src_cached=src_cached))
        duration = max(cost.cpu_time, cost.pci_time, cost.sci_time, cost.src_read_time)
        duration += params.adapter.pio_op_overhead
        duration *= self._retry_factor()
        nbytes = run.total_bytes
        if nbytes == 0:
            return cost
        if self.qos is not None:
            duration = self.qos.shape_duration(src, route, nbytes, duration)
        t0 = self.engine.now
        fault = self._draw_fault(src, dst, nbytes)
        if fault is not None:
            yield from self._abort_transfer(src, route, nbytes, duration, fault)
        # Propagation to the target, then stream at the modelled rate
        # (shared with concurrent flows by the network).
        yield self.engine.timeout(route.hops * params.link.hop_latency)
        yield self.network.transfer(route, nbytes, nbytes / duration)
        self.counters["pio_writes"] += 1
        self.counters["bytes_written"] += nbytes
        self._trace_xfer("pio_write", src, dst, nbytes, t0, route)
        return cost

    def read_duration(self, src: int, run: AccessRun, route: Route) -> float:
        """Stand-alone duration of a remote read of ``run`` along ``route``:
        a stalled round trip per read transaction (0.0 for none)."""
        params = self.params_for(src)
        txns = self._pio_costs.lookup(
            ("read", src, run.base % params.adapter.read_txn_size, run.size,
             run.stride, run.count),
            lambda: remote_read_txns(run, params))
        if txns == 0:
            return 0.0
        per_txn = (
            params.adapter.read_roundtrip
            + 2 * max(0, route.hops - 1) * params.link.hop_latency
        )
        return txns * per_txn + params.adapter.pio_op_overhead

    def pio_read(self, src: int, dst: int, run: AccessRun):
        """Transparent remote read; the CPU stalls per read transaction."""
        if src == dst:
            raise ValueError("pio_read is for remote targets; use the memory model locally")
        route = self._check_route(src, dst)
        duration = self.read_duration(src, run, route)
        nbytes = run.total_bytes
        if duration == 0.0 or nbytes == 0:
            return 0.0
        if self.qos is not None:
            duration = self.qos.shape_duration(src, route, nbytes, duration)
        t0 = self.engine.now
        fault = self._draw_fault(src, dst, nbytes)
        if fault is not None:
            yield from self._abort_transfer(src, route, nbytes, duration, fault)
        yield self.network.transfer(route, nbytes, nbytes / duration)
        self.counters["pio_reads"] += 1
        self.counters["bytes_read"] += nbytes
        self._trace_xfer("pio_read", src, dst, nbytes, t0, route)
        return duration

    def dma_transfer(self, src: int, dst: int, nbytes: int):
        """DMA-engine transfer of a contiguous block (no CPU involvement)."""
        if src == dst:
            raise ValueError("dma_transfer is for remote targets")
        route = self._check_route(src, dst)
        params = self.params_for(src)
        duration = dma_cost(nbytes, params) * self._retry_factor()
        if nbytes == 0:
            return 0.0
        if self.qos is not None:
            duration = self.qos.shape_duration(src, route, nbytes, duration)
        t0 = self.engine.now
        fault = self._draw_fault(src, dst, nbytes)
        if fault is not None:
            yield from self._abort_transfer(src, route, nbytes, duration, fault)
        yield self.engine.timeout(route.hops * params.link.hop_latency)
        yield self.network.transfer(route, nbytes, nbytes / duration)
        self.counters["dma_transfers"] += 1
        self.counters["bytes_written"] += nbytes
        self._trace_xfer("dma", src, dst, nbytes, t0, route)
        return duration

    def transfer_raw(self, src: int, dst: int, nbytes: int, duration: float,
                     tearable: bool = False):
        """Ship ``nbytes`` with a caller-computed unshared duration.

        Protocol layers that combine several cost components (e.g. the
        direct_pack_ff feed loop + transaction formation) compute the
        stand-alone duration themselves and use this to still share ring
        bandwidth with concurrent flows.

        ``tearable=True`` declares that the caller can resume the stream
        at an arbitrary byte offset (the packed chunk path), allowing an
        installed fault plan to tear the transfer instead of losing it
        whole.
        """
        if src == dst:
            raise ValueError("transfer_raw is for remote targets")
        if duration <= 0:
            raise ValueError(f"non-positive duration: {duration}")
        route = self._check_route(src, dst)
        params = self.params_for(src)
        if nbytes == 0:
            return
        duration *= self._retry_factor()
        if self.qos is not None:
            duration = self.qos.shape_duration(src, route, nbytes, duration)
        t0 = self.engine.now
        fault = self._draw_fault(src, dst, nbytes, tearable=tearable)
        if fault is not None:
            yield from self._abort_transfer(src, route, nbytes, duration, fault)
        yield self.engine.timeout(route.hops * params.link.hop_latency)
        yield self.network.transfer(route, nbytes, nbytes / duration)
        self.counters["pio_writes"] += 1
        self.counters["bytes_written"] += nbytes
        self._trace_xfer("raw", src, dst, nbytes, t0, route)

    def store_barrier(self, src: int, dst: int):
        """Wait until all writes issued by src towards dst have arrived.

        SCI requires this because writes are posted (write-and-forget) and
        may be retried out of order after transmission errors (Sec. 2).
        Cost: flush the stream buffers and collect the outstanding echoes —
        one loop around the ring in the worst case.
        """
        self._check_route(src, dst)
        yield self.engine.timeout(self.barrier_time(src))
        self.counters["barriers"] += 1

    def barrier_time(self, src: int) -> float:
        """What a store barrier from node ``src`` waits."""
        params = self.params_for(src)
        return (params.adapter.store_barrier_cost
                + self.topology.n_nodes * params.link.hop_latency)

    def post_interrupt(self, src: int, dst: int):
        """Deliver a remote interrupt at dst (emulated-access doorbell)."""
        route = self._check_route(src, dst)
        params = self.params_for(src)
        yield self.engine.timeout(
            params.adapter.interrupt_latency + route.hops * params.link.hop_latency
        )
        self.counters["interrupts"] += 1
