"""Tests for the cache-aware local memory-copy model (repro.hardware.memory)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._units import KiB, MiB
from repro.hardware import MemorySystem
from repro.hardware.memory import CopyCost
from repro.hardware.params import MemoryParams


@pytest.fixture
def mem():
    return MemorySystem(MemoryParams())


# -- per-block copy costs: reference models the tests exercise -----------------


def blockwise_copy_cost(memory: MemorySystem, block_count: int,
                        block_len: int) -> CopyCost:
    """Cost of copying ``block_count`` blocks of ``block_len`` bytes each.

    This is the pack/unpack cost model: per-block loop overhead plus
    streaming at the bandwidth the *block length* allows.
    """
    if block_count < 0 or block_len < 0:
        raise ValueError("block_count and block_len must be non-negative")
    if block_count == 0 or block_len == 0:
        return CopyCost(0.0, 0, block_count)
    total = block_count * block_len
    bw = memory.copy_bandwidth(block_len)
    duration = (
        memory.params.copy_call_overhead
        + block_count * memory.params.per_block_overhead
        + total / bw
    )
    return CopyCost(duration, total, block_count)


def grouped_blocks_cost(memory: MemorySystem,
                        groups: list[tuple[int, int]]) -> CopyCost:
    """Cost of copying blocks given as ``(block_len, count)`` groups.

    Closed-form version of :meth:`MemorySystem.blocks_copy_cost` for the
    flattened datatype representation, which naturally yields uniform
    groups.
    """
    total = 0
    blocks = 0
    duration = memory.params.copy_call_overhead
    for block_len, count in groups:
        if block_len < 0 or count < 0:
            raise ValueError("negative block length or count")
        if block_len == 0 or count == 0:
            continue
        duration += count * memory.params.per_block_overhead
        duration += count * block_len / memory.copy_bandwidth(block_len)
        total += count * block_len
        blocks += count
    if blocks == 0:
        return CopyCost(0.0, 0, 0)
    return CopyCost(duration, total, blocks)


class TestCopyBandwidth:
    def test_hierarchy_ordering(self, mem):
        l1 = mem.copy_bandwidth(4 * KiB)
        l2 = mem.copy_bandwidth(64 * KiB)
        main = mem.copy_bandwidth(1 * MiB)
        assert l1 > l2 > main

    def test_thresholds_use_double_working_set(self, mem):
        # 2 * chunk must fit the cache: exactly half the L1 is the edge.
        l1_size = mem.params.caches.l1_size
        assert mem.copy_bandwidth(l1_size // 2) == mem.params.l1_copy_bw
        assert mem.copy_bandwidth(l1_size // 2 + 1) == mem.params.l2_copy_bw

    def test_invalid_chunk(self, mem):
        with pytest.raises(ValueError):
            mem.copy_bandwidth(0)


class TestCopyCost:
    def test_zero_copy_free(self, mem):
        assert mem.copy_cost(0).duration == 0.0

    def test_includes_call_overhead(self, mem):
        tiny = mem.copy_cost(1)
        assert tiny.duration >= mem.params.copy_call_overhead

    def test_chunked_copy_uses_chunk_bandwidth(self, mem):
        whole = mem.copy_cost(1 * MiB)
        chunked = mem.copy_cost(1 * MiB, chunk_len=4 * KiB)
        assert chunked.duration < whole.duration  # L1-friendly chunks

    def test_negative_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.copy_cost(-1)


class TestBlockwiseCost:
    def test_per_block_overhead_dominates_tiny_blocks(self, mem):
        many_small = blockwise_copy_cost(mem, 8192, 8)
        few_large = blockwise_copy_cost(mem, 8, 8192)
        assert many_small.bytes_copied == few_large.bytes_copied
        assert many_small.duration > few_large.duration

    def test_bandwidth_property(self, mem):
        cost = blockwise_copy_cost(mem, 16, 4 * KiB)
        assert cost.bandwidth == pytest.approx(
            cost.bytes_copied / cost.duration
        )

    def test_empty(self, mem):
        assert blockwise_copy_cost(mem, 0, 128).duration == 0.0
        assert blockwise_copy_cost(mem, 128, 0).duration == 0.0

    def test_grouped_matches_blockwise_for_uniform(self, mem):
        grouped = grouped_blocks_cost(mem, [(256, 100)])
        blockwise = blockwise_copy_cost(mem, 100, 256)
        assert grouped.duration == pytest.approx(blockwise.duration)

    def test_grouped_mixed_lengths(self, mem):
        cost = grouped_blocks_cost(mem, [(8, 10), (4096, 2)])
        assert cost.blocks == 12
        assert cost.bytes_copied == 80 + 8192

    def test_blocks_copy_cost_list(self, mem):
        cost = mem.blocks_copy_cost([8, 0, 4096, 8])
        assert cost.blocks == 3
        assert cost.bytes_copied == 8 + 4096 + 8

    def test_negative_rejected(self, mem):
        with pytest.raises(ValueError):
            blockwise_copy_cost(mem, -1, 8)
        with pytest.raises(ValueError):
            grouped_blocks_cost(mem, [(-1, 2)])


@given(
    nblocks=st.integers(min_value=1, max_value=1000),
    blocklen=st.integers(min_value=1, max_value=8192),
)
def test_property_blockwise_cost_positive_and_monotone(nblocks, blocklen):
    mem = MemorySystem(MemoryParams())
    cost = blockwise_copy_cost(mem, nblocks, blocklen)
    assert cost.duration > 0
    more = blockwise_copy_cost(mem, nblocks + 1, blocklen)
    assert more.duration > cost.duration
