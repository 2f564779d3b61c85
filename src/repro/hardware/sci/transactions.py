"""SCI transaction formation and PIO/DMA cost models.

This module turns an *access run* (a strided sequence of contiguous block
writes or reads against remote memory) into transaction counts for the two
pipeline stages the paper describes:

* the **PCI stage** — chunks leaving the CPU's write-combine buffer become
  PCI bus transactions;
* the **SCI stage** — the adapter's stream buffers gather consecutive
  ascending chunks into SCI transactions of at most 64 bytes, each split at
  natural alignment (an SCI move transaction carries a naturally aligned
  power-of-two payload).

Both stages are computed in closed form (O(1) per block, with cycle
detection over the stride pattern), so sweeping a benchmark over megabyte
transfers costs microseconds of host time.  A chunk-level reference built
on the store and write-combine primitives of :mod:`repro.hardware.cpu`
(``tests/test_hw_transactions.py``) validates the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cpu import count_store_units
from ..params import NodeParams

__all__ = [
    "AccessRun",
    "TxnSummary",
    "summarize_block",
    "summarize_run",
    "remote_write_cost",
    "remote_read_cost",
    "remote_read_txns",
    "dma_cost",
    "WriteCost",
]


@dataclass(frozen=True)
class AccessRun:
    """``count`` contiguous blocks of ``size`` bytes, starts ``stride`` apart.

    ``stride == size`` describes a fully contiguous transfer.  Runs with
    ``stride < size`` (overlapping blocks) are rejected — the MPI layer
    never generates them for the remote-access path.
    """

    base: int
    size: int
    stride: int
    count: int

    def __post_init__(self) -> None:
        if self.size < 0 or self.count < 0:
            raise ValueError("size and count must be non-negative")
        if self.count > 1 and self.stride < self.size:
            raise ValueError(
                f"overlapping access run: stride {self.stride} < size {self.size}"
            )

    @property
    def total_bytes(self) -> int:
        return self.size * self.count

    @staticmethod
    def contiguous(base: int, nbytes: int) -> "AccessRun":
        return AccessRun(base=base, size=nbytes, stride=nbytes, count=1)


@dataclass(frozen=True)
class TxnSummary:
    """Transaction counts/bytes for one access run through both stages."""

    n_stores: int = 0
    pci_txns: int = 0
    pci_bytes: int = 0
    sci_txns: int = 0
    sci_bytes: int = 0

    def __add__(self, other: "TxnSummary") -> "TxnSummary":
        return TxnSummary(
            self.n_stores + other.n_stores,
            self.pci_txns + other.pci_txns,
            self.pci_bytes + other.pci_bytes,
            self.sci_txns + other.sci_txns,
            self.sci_bytes + other.sci_bytes,
        )

    def scaled(self, factor: int) -> "TxnSummary":
        return TxnSummary(
            self.n_stores * factor,
            self.pci_txns * factor,
            self.pci_bytes * factor,
            self.sci_txns * factor,
            self.sci_bytes * factor,
        )


def _aligned_decomp_count(addr: int, size: int, max_width: int) -> int:
    """Number of naturally aligned power-of-two pieces covering a range."""
    return count_store_units(addr, size, store_width=max_width)


def summarize_block(
    addr: int, size: int, params: NodeParams
) -> TxnSummary:
    """Closed-form transaction summary for one contiguous block write.

    Two regimes, matching the paper's Sec. 4.3 observations:

    * **WC enabled** — stores gather in 32-byte WC lines; flushes become
      PCI bursts, and the adapter forms naturally aligned power-of-two SCI
      transactions from each gathered 64-byte window.  Misaligned blocks
      fragment into several small transactions — the stride-sensitivity of
      the paper's strided-write study.
    * **WC disabled** — every store is its own strongly ordered PCI
      transaction (the ~50 % bandwidth cost), but the adapter emits masked
      (byte-enable) SCI transactions per touched 64-byte window, so
      alignment no longer matters ("disabling the write-combining avoids
      the performance drops").
    """
    if size == 0:
        return TxnSummary()
    wc = params.write_combine
    line = wc.line_size
    stream = params.adapter.stream_txn_size

    first_win = addr // stream
    last_win = (addr + size - 1) // stream

    if not wc.enabled:
        # Misaligned stores are legal on IA-32; without WC each store is
        # issued (and completes on PCI) individually.
        n_stores = -(-size // wc.store_width)
        return TxnSummary(
            n_stores=n_stores,
            pci_txns=n_stores,
            pci_bytes=size,
            sci_txns=last_win - first_win + 1,
            sci_bytes=size,
        )

    n_stores = count_store_units(addr, size, wc.store_width)

    if addr % wc.store_width:
        # A burst that does not start on a store-width boundary defeats
        # both the WC fill and the adapter's stream gathering: every store
        # unit goes out as its own (masked, sub-block) transaction.  This
        # is the floor of the paper's strided study (7 MiB/s at 256 B).
        return TxnSummary(
            n_stores=n_stores,
            pci_txns=n_stores,
            pci_bytes=size,
            sci_txns=n_stores,
            sci_bytes=size,
        )

    # WC flushes one chunk per touched 32-byte line (contiguous dirty run).
    first_line = addr // line
    last_line = (addr + size - 1) // line
    pci_txns = last_line - first_line + 1

    # SCI stage: stream buffers gather the (ascending, adjacent) chunks into
    # per-64-byte-window runs; full windows travel as single transactions,
    # partial head/tail runs split at natural alignment.
    if first_win == last_win:
        sci_txns = _aligned_decomp_count(addr, size, stream)
    else:
        head_size = (first_win + 1) * stream - addr
        tail_size = (addr + size) - last_win * stream
        full = last_win - first_win - 1
        sci_txns = full
        if head_size == stream:
            sci_txns += 1
        else:
            sci_txns += _aligned_decomp_count(addr, head_size, stream)
        if tail_size == stream:
            sci_txns += 1
        else:
            sci_txns += _aligned_decomp_count(last_win * stream, tail_size, stream)

    return TxnSummary(
        n_stores=n_stores,
        pci_txns=pci_txns,
        pci_bytes=size,
        sci_txns=sci_txns,
        sci_bytes=size,
    )


def summarize_run(run: AccessRun, params: NodeParams) -> TxnSummary:
    """Transaction summary for a whole strided access run.

    Contiguous runs (stride == size) collapse to one block.  Strided runs
    use cycle detection: the per-block summary depends only on the block's
    start address modulo the 64-byte stream window, which repeats with
    period ``64 / gcd(stride, 64)``.
    """
    if run.count == 0 or run.size == 0:
        return TxnSummary()
    if run.count == 1 or run.stride == run.size:
        return summarize_block(run.base, run.size * run.count, params)

    window = params.adapter.stream_txn_size
    period = window // math.gcd(run.stride, window)
    period = min(period, run.count)
    cycle = TxnSummary()
    per_offset: list[TxnSummary] = []
    for i in range(period):
        s = summarize_block(run.base + i * run.stride, run.size, params)
        per_offset.append(s)
        cycle = cycle + s
    full_cycles, remainder = divmod(run.count, period)
    total = cycle.scaled(full_cycles)
    for i in range(remainder):
        total = total + per_offset[i]
    return total


@dataclass(frozen=True)
class WriteCost:
    """Cost breakdown of a PIO remote write run."""

    duration: float
    cpu_time: float
    pci_time: float
    sci_time: float
    src_read_time: float
    summary: TxnSummary

    @property
    def bottleneck(self) -> str:
        stages = {
            "cpu": self.cpu_time,
            "pci": self.pci_time,
            "sci": self.sci_time,
            "src_read": self.src_read_time,
        }
        return max(stages, key=stages.get)  # type: ignore[arg-type]


def remote_write_cost(
    run: AccessRun,
    params: NodeParams,
    src_cached: bool = True,
) -> WriteCost:
    """Duration of a PIO remote-write access run.

    The CPU store issue, the PCI bus, and the SCI link form a pipeline;
    throughput is set by the slowest stage.  ``src_cached=False`` adds the
    source-side main-memory read stage (the cause of the paper's PIO dip
    beyond 128 kiB, Fig. 1 footnote 2).
    """
    summary = summarize_run(run, params)
    wc = params.write_combine
    pci = params.pci
    link = params.link
    adapter = params.adapter

    cpu_time = summary.n_stores * wc.store_issue_cost
    pci_time = summary.pci_txns * pci.txn_overhead + summary.pci_bytes / pci.wire_bw
    sci_time = (
        summary.sci_txns * adapter.txn_overhead
        + (summary.sci_bytes + summary.sci_txns * link.packet_header)
        / link.bandwidth
    )
    src_read_time = (
        0.0 if src_cached else summary.pci_bytes / params.memory.main_read_bw
    )
    duration = max(cpu_time, pci_time, sci_time, src_read_time)
    return WriteCost(
        duration=duration,
        cpu_time=cpu_time,
        pci_time=pci_time,
        sci_time=sci_time,
        src_read_time=src_read_time,
        summary=summary,
    )


def remote_read_txns(run: AccessRun, params: NodeParams) -> int:
    """Number of read transactions needed to cover an access run.

    Read transactions carry at most ``read_txn_size`` naturally aligned
    bytes each; strided runs use the same stride-pattern cycle detection as
    the write path.
    """
    if run.count == 0 or run.size == 0:
        return 0
    width = params.adapter.read_txn_size
    if run.count == 1 or run.stride == run.size:
        return _aligned_decomp_count(run.base, run.size * run.count, width)

    period = width // math.gcd(run.stride, width)
    period = min(period, run.count)
    per_offset = [
        _aligned_decomp_count(run.base + i * run.stride, run.size, width)
        for i in range(period)
    ]
    full_cycles, remainder = divmod(run.count, period)
    return sum(per_offset) * full_cycles + sum(per_offset[:remainder])


def remote_read_cost(run: AccessRun, params: NodeParams) -> float:
    """Duration of a PIO remote-read access run.

    Reads are synchronous: the CPU stalls for a full round trip per read
    transaction, so the cost is simply transactions x round-trip (Sec. 2:
    "the performance of remote reads is only a fraction of the write
    performance").
    """
    return remote_read_txns(run, params) * params.adapter.read_roundtrip


def dma_cost(nbytes: int, params: NodeParams) -> float:
    """Duration of a DMA-engine transfer of a contiguous block.

    Fixed descriptor/driver setup plus streaming at the engine bandwidth —
    slower than PIO for small blocks, faster for large ones (Fig. 1).
    """
    if nbytes < 0:
        raise ValueError(f"negative size: {nbytes}")
    adapter = params.adapter
    if nbytes == 0:
        return 0.0
    return adapter.dma_setup + nbytes / adapter.dma_bw
