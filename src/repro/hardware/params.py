"""Calibrated hardware parameters for the simulated SCI cluster node.

The paper's testbed is a cluster of Dual Pentium-III/800 nodes (ServerWorks
ServerSet III LE, 64-bit/66-MHz PCI) with Dolphin D330 PCI-SCI adapters on a
single 8-node SCI ringlet at a 166 MHz link frequency (nominal ring
bandwidth 633 MiB/s; a software switch raises it to 200 MHz / 762 MiB/s).

All constants below are calibrated against numbers the paper itself reports:

* strided remote-write bandwidth 5–28 MiB/s at 8 B accesses and
  7–162 MiB/s at 256 B accesses, maxima at strides that are multiples of
  the 32-byte Pentium-III write-combine buffer (Sec. 4.3);
* disabling write-combining costs "about 50 %" of bandwidth (Sec. 4.3);
* per-node MPI_Put peak 120 MiB/s; ring congestion behaviour of Table 2;
* remote reads much slower than writes, but small reads still low-latency
  (Sec. 2);
* PIO beats DMA for small transfers, DMA wins for large ones (Fig. 1);
* PIO bandwidth dips beyond 128 kiB on this chipset because of limited
  local memory bandwidth (Fig. 1, footnote 2).

Times are µs, sizes bytes, bandwidths B/µs (see :mod:`repro._units`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

from .._units import KiB, mib_s

__all__ = [
    "CacheSpec",
    "MemoryParams",
    "WriteCombineParams",
    "PCIParams",
    "SCILinkParams",
    "SCIAdapterParams",
    "NodeParams",
    "DEFAULT_NODE",
    "CONGESTION_CURVE",
]


@dataclass(frozen=True)
class CacheSpec:
    """CPU cache hierarchy (Pentium-III Coppermine defaults)."""

    l1_size: int = 16 * KiB
    l2_size: int = 256 * KiB
    line_size: int = 32

    def __post_init__(self) -> None:
        if not (0 < self.l1_size <= self.l2_size):
            raise ValueError("need 0 < l1_size <= l2_size")
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError("line_size must be a positive power of two")


@dataclass(frozen=True)
class MemoryParams:
    """Local memory-copy cost model (used for packing and shm transfers).

    Copy bandwidth depends on where source and destination live in the
    hierarchy.  The ServerSet III LE chipset of the paper's nodes has
    famously modest memory bandwidth — the cause of the PIO dip past
    128 kiB in Fig. 1.
    """

    caches: CacheSpec = field(default_factory=CacheSpec)
    #: copy bandwidth when the working set fits L1 / L2 / neither (B/µs).
    l1_copy_bw: float = mib_s(1800.0)
    l2_copy_bw: float = mib_s(900.0)
    main_copy_bw: float = mib_s(240.0)
    #: effective source-fetch bandwidth while streaming PIO writes (reads
    #: from main memory interleaved with PCI writes thrash the FSB, which
    #: is the cause of the Fig. 1 PIO dip beyond 128 kiB on this chipset).
    main_read_bw: float = mib_s(140.0)
    #: fixed per-copy-call software overhead (function call, loop setup).
    copy_call_overhead: float = 0.035
    #: extra per-block overhead of block-wise copy loops (address computation).
    per_block_overhead: float = 0.012


@dataclass(frozen=True)
class WriteCombineParams:
    """CPU write-combining buffer (Pentium-III: 32-byte lines)."""

    line_size: int = 32
    enabled: bool = True
    #: widest single store instruction the CPU issues (MMX/uncached: 8 B).
    store_width: int = 8
    #: CPU cost to issue one store instruction to an uncached/WC mapping.
    store_issue_cost: float = 0.008


@dataclass(frozen=True)
class PCIParams:
    """PCI bus stage (64-bit/66-MHz in the paper's nodes)."""

    #: per-transaction overhead (arbitration + address phase + turnaround).
    txn_overhead: float = 0.080
    #: burst data bandwidth (64 bit x 66 MHz = 528 MB/s).
    wire_bw: float = 528.0


@dataclass(frozen=True)
class SCILinkParams:
    """SCI ring link stage."""

    #: link frequency in MHz; the ring moves 4 bytes per cycle, giving the
    #: paper's 633 MiB/s nominal ring bandwidth at 166 MHz and 762 at 200.
    frequency_mhz: float = 166.0
    bytes_per_cycle: float = 4.0
    #: SCI packet header+CRC overhead per transaction on the wire.
    packet_header: int = 16
    #: size of the echo (flow-control) packet returned per data packet.
    echo_bytes: int = 8
    #: one-way wire propagation + adapter forwarding latency per hop.
    hop_latency: float = 0.12

    @property
    def bandwidth(self) -> float:
        """Nominal link bandwidth in B/µs."""
        return self.frequency_mhz * self.bytes_per_cycle


@dataclass(frozen=True)
class SCIAdapterParams:
    """PCI-SCI adapter (Dolphin D330) stage."""

    #: stream buffers gather consecutive ascending writes into SCI
    #: transactions of at most this payload (64-byte SCI move transactions).
    stream_txn_size: int = 64
    #: number of stream buffers; an access pattern touching more distinct
    #: streams than this flushes eagerly (modelled coarsely).
    stream_buffers: int = 8
    #: per-SCI-transaction processing overhead on the adapter (send side).
    txn_overhead: float = 0.245
    #: round-trip cost of one remote *read* transaction (CPU stalls).
    read_roundtrip: float = 3.1
    #: maximum payload of one read transaction.
    read_txn_size: int = 64
    #: fixed per-PIO-operation software cost (segment lookup, map check).
    pio_op_overhead: float = 0.18
    #: cost of a store barrier (flush stream buffers + wait for echoes).
    store_barrier_cost: float = 1.6
    #: DMA engine: descriptor setup cost and streaming bandwidth.
    dma_setup: float = 24.0
    dma_bw: float = mib_s(220.0)
    #: cost to post a remote interrupt + deliver it to a handler process.
    interrupt_latency: float = 9.0
    #: handler dispatch overhead at the interrupted host.
    handler_dispatch: float = 2.5


#: Ring congestion-response curve: (segment load, delivered fraction of
#: demand).  Load is aggregate *data* demand on the bottleneck segment
#: relative to nominal link bandwidth.  Beyond saturation SCI retries
#: (busy echoes) burn bandwidth, so delivered traffic *falls* as offered
#: load keeps rising.  The five calibration points are derived directly
#: from Table 2 of the paper (4..8 nodes at maximal segment utilization:
#: per-node delivered bandwidth 120.70, 115.80, 97.75, 79.30, 62.78 MiB/s
#: against a 120.8 MiB/s per-node demand and a 633 MiB/s ring).
CONGESTION_CURVE: tuple[tuple[float, float], ...] = (
    (0.00, 1.000),
    (0.60, 1.000),
    (0.777, 0.982),
    (0.953, 0.959),
    (1.146, 0.809),
    (1.334, 0.657),
    (1.527, 0.520),
)

#: Beyond the last calibration point the ring *efficiency* (delivered
#: traffic relative to nominal bandwidth, e = load x fraction) declines
#: roughly linearly — SCI's busy-retry traffic grows with overload — with
#: a floor representing the saturated steady state.  The slope matches
#: the efficiency trend of the last three Table 2 points
#: ((0.927 - 0.793) / (1.527 - 1.146) ≈ 0.35/load; we use the tail pair).
CONGESTION_EFF_TAIL_SLOPE: float = -0.435
CONGESTION_EFF_FLOOR: float = 0.40


def congestion_fraction(load: float) -> float:
    """Delivered fraction of offered demand at relative segment ``load``."""
    if load < 0:
        raise ValueError(f"negative load: {load}")
    points = CONGESTION_CURVE
    if load <= points[0][0]:
        return points[0][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if load <= x1:
            t = (load - x0) / (x1 - x0)
            return y0 + t * (y1 - y0)
    last_x, last_y = points[-1]
    efficiency = max(
        CONGESTION_EFF_FLOOR,
        last_x * last_y + CONGESTION_EFF_TAIL_SLOPE * (load - last_x),
    )
    return min(last_y, efficiency / load)


@dataclass(frozen=True)
class NodeParams:
    """All hardware parameters of one cluster node + its adapter."""

    memory: MemoryParams = field(default_factory=MemoryParams)
    write_combine: WriteCombineParams = field(default_factory=WriteCombineParams)
    pci: PCIParams = field(default_factory=PCIParams)
    link: SCILinkParams = field(default_factory=SCILinkParams)
    adapter: SCIAdapterParams = field(default_factory=SCIAdapterParams)

    @cached_property
    def write_alignment(self) -> int:
        """Modulus under which equal-geometry remote accesses cost the same.

        Stores, WC-line flushes, stream gathering and read transactions
        see a target address only modulo these widths, so cost memos key
        on ``offset % write_alignment``, not on the offset.
        """
        return math.lcm(self.adapter.stream_txn_size,
                        self.adapter.read_txn_size,
                        self.write_combine.line_size,
                        self.write_combine.store_width)

    def with_link_mhz(self, mhz: float) -> "NodeParams":
        """The paper's software link-frequency switch (166 -> 200 MHz)."""
        return replace(self, link=replace(self.link, frequency_mhz=mhz))

    def with_write_combining(self, enabled: bool) -> "NodeParams":
        return replace(
            self, write_combine=replace(self.write_combine, enabled=enabled)
        )


#: Default node: the paper's Dual Pentium-III/800 + D330 configuration.
DEFAULT_NODE = NodeParams()
