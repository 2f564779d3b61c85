"""Tests for the SCI transaction-formation and PIO cost models.

These tests pin the *paper-calibrated* behaviour: write-combine alignment
sensitivity (Sec. 4.3), read/write asymmetry (Sec. 2), WC-off halving
(Sec. 4.3), and PIO-vs-DMA crossover (Fig. 1).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import KiB, MiB, to_mib_s
from repro.hardware import DEFAULT_NODE
from repro.hardware.cpu import (
    Chunk,
    coalesce_within_windows,
    count_store_units,
    store_units,
)
from repro.hardware.params import NodeParams
from repro.hardware.sci.transactions import (
    AccessRun,
    TxnSummary,
    _aligned_decomp_count,
    dma_cost,
    remote_read_cost,
    remote_read_txns,
    remote_write_cost,
    summarize_block,
    summarize_run,
)


# -- chunk-level reference models the closed forms are tested against ----------


def wc_flush_chunks(
    block_addr: int, block_size: int, line_size: int = 32, store_width: int = 8
) -> list[Chunk]:
    """Chunks leaving the write-combine stage for one contiguous block write.

    For a contiguous block the dirty runs are contiguous inside each WC
    line, so the result is the block split at ``line_size`` boundaries.
    (Strided *gaps* between blocks never merge because the WC line is
    flushed when the next store targets a different line; callers model
    that by calling this per block.)
    """
    return list(
        coalesce_within_windows(
            store_units(block_addr, block_size, store_width), line_size
        )
    )


def summarize_block_reference(addr: int, size: int, params: NodeParams) -> TxnSummary:
    """Chunk-level reference implementation of :func:`summarize_block`.

    Materialises every store/chunk; used by the property tests to validate
    the closed form.  Do not use on large blocks in hot paths.
    """
    if size == 0:
        return TxnSummary()
    wc = params.write_combine
    stream = params.adapter.stream_txn_size
    if not wc.enabled:
        # Per-store simulation: misaligned stores allowed, one PCI txn each,
        # one masked SCI txn per touched stream window.
        stores = [
            (addr + i * wc.store_width, min(wc.store_width, size - i * wc.store_width))
            for i in range(-(-size // wc.store_width))
        ]
        windows = {w for a, s in stores for w in range(a // stream, (a + s - 1) // stream + 1)}
        return TxnSummary(
            n_stores=len(stores),
            pci_txns=len(stores),
            pci_bytes=size,
            sci_txns=len(windows),
            sci_bytes=size,
        )
    units = store_units(addr, size, wc.store_width)
    if addr % wc.store_width:
        return TxnSummary(
            n_stores=len(units),
            pci_txns=len(units),
            pci_bytes=size,
            sci_txns=len(units),
            sci_bytes=size,
        )
    pci_chunks = list(coalesce_within_windows(units, wc.line_size))
    gathered = list(coalesce_within_windows(pci_chunks, stream))
    sci_txns = 0
    for chunk_addr, chunk_size in gathered:
        sci_txns += _aligned_decomp_count(chunk_addr, chunk_size, stream)
    return TxnSummary(
        n_stores=len(units),
        pci_txns=len(pci_chunks),
        pci_bytes=size,
        sci_txns=sci_txns,
        sci_bytes=size,
    )


def write_bandwidth(run: AccessRun, params=DEFAULT_NODE, **kw) -> float:
    cost = remote_write_cost(run, params, **kw)
    return to_mib_s(run.total_bytes / cost.duration)


def read_bandwidth(run: AccessRun, params=DEFAULT_NODE) -> float:
    return to_mib_s(run.total_bytes / remote_read_cost(run, params))


class TestStoreUnits:
    def test_aligned_block_uses_full_width(self):
        assert store_units(0, 32) == [(0, 8), (8, 8), (16, 8), (24, 8)]

    def test_misaligned_head_and_tail(self):
        units = store_units(3, 8)
        # 3..4 (1B), 4..8 (4B), 8..10 (2B), 10..11 (1B)
        assert units == [(3, 1), (4, 4), (8, 2), (10, 1)]
        assert sum(s for _, s in units) == 8

    def test_zero_size(self):
        assert store_units(100, 0) == []

    def test_count_matches_list(self):
        for addr in range(0, 16):
            for size in range(0, 70):
                assert count_store_units(addr, size) == len(store_units(addr, size))

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            store_units(0, 8, store_width=6)


class TestCoalesce:
    def test_adjacent_within_window_merge(self):
        chunks = [(0, 8), (8, 8), (16, 8), (24, 8)]
        assert list(coalesce_within_windows(chunks, 32)) == [(0, 32)]

    def test_window_boundary_splits(self):
        chunks = [(24, 8), (32, 8)]
        assert list(coalesce_within_windows(chunks, 32)) == [(24, 8), (32, 8)]

    def test_gap_splits(self):
        chunks = [(0, 8), (16, 8)]
        assert list(coalesce_within_windows(chunks, 32)) == [(0, 8), (16, 8)]

    def test_chunk_spanning_window_is_split(self):
        assert list(coalesce_within_windows([(28, 8)], 32)) == [(28, 4), (32, 4)]

    def test_wc_flush_contiguous_block(self):
        # A 64-byte aligned block flushes as two full WC lines.
        assert wc_flush_chunks(0, 64) == [(0, 32), (32, 32)]

    def test_wc_flush_misaligned_block(self):
        # 8 bytes at offset 28 straddles two lines -> two partial flushes.
        assert wc_flush_chunks(28, 8) == [(28, 4), (32, 4)]


class TestSummaries:
    def test_contiguous_64B_is_one_sci_txn(self):
        s = summarize_block(0, 64, DEFAULT_NODE)
        assert s.sci_txns == 1
        assert s.pci_txns == 2  # two WC lines
        assert s.n_stores == 8

    def test_aligned_8B_block_is_one_txn(self):
        s = summarize_block(64, 8, DEFAULT_NODE)
        assert s.sci_txns == 1 and s.pci_txns == 1 and s.n_stores == 1

    def test_misaligned_8B_block_splits(self):
        s = summarize_block(68, 8, DEFAULT_NODE)  # 68..76: 4+4 naturally aligned
        assert s.sci_txns == 2

    def test_oddly_misaligned_block_splits_badly(self):
        s = summarize_block(3, 8, DEFAULT_NODE)  # 1+4+2+1
        assert s.sci_txns == 4

    def test_run_extrapolation_matches_loop(self):
        run = AccessRun(base=4, size=24, stride=56, count=37)
        total = summarize_run(run, DEFAULT_NODE)
        looped = summarize_block(4, 24, DEFAULT_NODE)
        acc = looped.scaled(0)
        for i in range(run.count):
            acc = acc + summarize_block(4 + i * 56, 24, DEFAULT_NODE)
        assert total == acc

    def test_contiguous_run_collapses(self):
        run = AccessRun(base=0, size=64, stride=64, count=16)
        assert summarize_run(run, DEFAULT_NODE) == summarize_block(0, 1024, DEFAULT_NODE)

    def test_overlapping_run_rejected(self):
        with pytest.raises(ValueError):
            AccessRun(base=0, size=64, stride=32, count=2)


@settings(max_examples=200, deadline=None)
@given(
    addr=st.integers(min_value=0, max_value=200),
    size=st.integers(min_value=0, max_value=300),
)
def test_property_block_summary_matches_reference(addr, size):
    """Closed-form block summary == chunk-level reference simulation."""
    fast = summarize_block(addr, size, DEFAULT_NODE)
    slow = summarize_block_reference(addr, size, DEFAULT_NODE)
    assert fast == slow


@settings(max_examples=150, deadline=None)
@given(
    addr=st.integers(min_value=0, max_value=130),
    size=st.integers(min_value=0, max_value=260),
)
def test_property_block_summary_matches_reference_wc_off(addr, size):
    params = DEFAULT_NODE.with_write_combining(False)
    assert summarize_block(addr, size, params) == summarize_block_reference(
        addr, size, params
    )


@settings(max_examples=100, deadline=None)
@given(
    base=st.integers(min_value=0, max_value=64),
    size=st.integers(min_value=1, max_value=48),
    gap=st.integers(min_value=0, max_value=80),
    count=st.integers(min_value=1, max_value=60),
)
def test_property_run_summary_matches_per_block_sum(base, size, gap, count):
    """Cycle-detected run summary == naive per-block accumulation.

    Cross-block gathering only happens for contiguous runs (gap 0 handled
    by the collapse path), so per-block summation is the ground truth when
    gap > 0.
    """
    stride = size + gap
    run = AccessRun(base=base, size=size, stride=stride, count=count)
    total = summarize_run(run, DEFAULT_NODE)
    if gap == 0:
        expected = summarize_block(base, size * count, DEFAULT_NODE)
    else:
        expected = summarize_block(base, size, DEFAULT_NODE).scaled(0)
        for i in range(count):
            expected = expected + summarize_block(base + i * stride, size, DEFAULT_NODE)
    assert total == expected


class TestPaperCalibration:
    """Pin the quantitative shapes the paper reports (Sec. 4.3, Sec. 2, Fig. 1)."""

    def test_contiguous_write_peak(self):
        run = AccessRun.contiguous(0, 256 * KiB)
        bw = write_bandwidth(run)
        assert 140 <= bw <= 190  # peak PIO write ~160 MiB/s

    def test_strided_8B_aligned_near_28(self):
        # 8-byte accesses, stride a multiple of 32: paper max 28 MiB/s.
        run = AccessRun(base=0, size=8, stride=32, count=4096)
        bw = write_bandwidth(run)
        assert 20 <= bw <= 32

    def test_strided_8B_misaligned_much_slower(self):
        # Odd stride: accesses straddle WC lines -> paper min ~5 MiB/s.
        run = AccessRun(base=0, size=8, stride=31, count=4096)
        bw = write_bandwidth(run)
        aligned = write_bandwidth(AccessRun(base=0, size=8, stride=32, count=4096))
        assert bw < 0.6 * aligned
        assert 3 <= bw <= 16

    def test_strided_256B_aligned_near_160(self):
        run = AccessRun(base=0, size=256, stride=512, count=512)
        bw = write_bandwidth(run)
        assert 140 <= bw <= 185  # paper: up to 162 MiB/s

    def test_strided_256B_worst_case_much_slower(self):
        run = AccessRun(base=3, size=256, stride=509, count=512)
        bw = write_bandwidth(run)
        assert bw < 100  # paper: down to 7 MiB/s for bad strides (coarse bound)

    def test_stride_multiple_of_32_is_local_maximum(self):
        """Sweep strides for 8-byte accesses: multiples of 32 win (Sec. 4.3)."""
        results = {}
        for stride in range(8, 129):
            run = AccessRun(base=0, size=8, stride=stride, count=2048)
            results[stride] = write_bandwidth(run)
        best_aligned = max(results[s] for s in results if s % 32 == 0)
        worst_misaligned = min(results[s] for s in results if s % 32)
        # Paper: 5 vs 28 MiB/s between worst and best stride.
        assert best_aligned > 2.5 * worst_misaligned
        # And every stride that is a multiple of 32 performs at the top.
        for s in results:
            if s % 32 == 0:
                assert results[s] == pytest.approx(best_aligned, rel=0.05)

    def test_wc_disabled_halves_contiguous_bandwidth(self):
        run = AccessRun.contiguous(0, 256 * KiB)
        on = write_bandwidth(run)
        off = write_bandwidth(run, DEFAULT_NODE.with_write_combining(False))
        assert 0.35 * on <= off <= 0.65 * on  # "about 50%"

    def test_wc_disabled_avoids_stride_drops(self):
        """Without WC, alignment no longer matters much (Sec. 4.3)."""
        params = DEFAULT_NODE.with_write_combining(False)
        aligned = write_bandwidth(AccessRun(0, 8, 32, 2048), params)
        misaligned = write_bandwidth(AccessRun(0, 8, 36, 2048), params)
        assert misaligned >= 0.8 * aligned

    def test_read_much_slower_than_write(self):
        run = AccessRun.contiguous(0, 64 * KiB)
        assert read_bandwidth(run) < 0.25 * write_bandwidth(run)

    def test_small_read_latency_is_low(self):
        """Sec. 2: remote reads of small data still have low latency (µs-scale)."""
        cost = remote_read_cost(AccessRun.contiguous(0, 8), DEFAULT_NODE)
        assert cost < 10.0

    def test_dma_loses_small_wins_large(self):
        small = 1 * KiB
        large = 1 * MiB
        pio_small = remote_write_cost(AccessRun.contiguous(0, small), DEFAULT_NODE).duration
        pio_large = remote_write_cost(
            AccessRun.contiguous(0, large), DEFAULT_NODE, src_cached=False
        ).duration
        assert dma_cost(small, DEFAULT_NODE) > pio_small
        assert dma_cost(large, DEFAULT_NODE) < pio_large

    def test_uncached_source_dips_large_transfers(self):
        run = AccessRun.contiguous(0, 512 * KiB)
        cached = write_bandwidth(run, src_cached=True)
        uncached = write_bandwidth(run, src_cached=False)
        assert uncached < cached  # the Fig. 1 PIO dip beyond the L2 size

    def test_read_txn_count_strided(self):
        # 8-byte aligned reads, one txn each.
        run = AccessRun(base=0, size=8, stride=32, count=100)
        assert remote_read_txns(run, DEFAULT_NODE) == 100

    def test_write_cost_bottleneck_reporting(self):
        cost = remote_write_cost(AccessRun.contiguous(0, 64 * KiB), DEFAULT_NODE)
        assert cost.bottleneck in {"cpu", "pci", "sci", "src_read"}
        assert cost.duration == pytest.approx(
            max(cost.cpu_time, cost.pci_time, cost.sci_time, cost.src_read_time)
        )
