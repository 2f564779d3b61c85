"""Tests for the cache-aware local memory-copy model (repro.hardware.memory):
one function, ``MemorySystem.walk_cost``, prices every copy inside a node."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._units import KiB, MiB
from repro.hardware import MemorySystem
from repro.hardware.params import MemoryParams
from repro.mpi.pt2pt import DEFAULT_PROTOCOL

LOOPS = ("copy", "ff", "generic")


@pytest.fixture
def mem():
    return MemorySystem(MemoryParams())


def walk(mem, groups, loop, cold):
    return mem.walk_cost(groups, loop, cold, DEFAULT_PROTOCOL)


class TestCopyBandwidth:
    def test_hierarchy_ordering(self, mem):
        l1 = mem.copy_bandwidth(4 * KiB)
        l2 = mem.copy_bandwidth(64 * KiB)
        main = mem.copy_bandwidth(1 * MiB)
        assert l1 > l2 > main

    def test_thresholds_use_double_working_set(self, mem):
        # 2 * bytes must fit the cache: exactly half the L1 is the edge.
        l1_size = mem.params.caches.l1_size
        assert mem.copy_bandwidth(l1_size // 2) == mem.params.l1_copy_bw
        assert mem.copy_bandwidth(l1_size // 2 + 1) == mem.params.l2_copy_bw

    def test_invalid_size(self, mem):
        with pytest.raises(ValueError):
            mem.copy_bandwidth(0)


class TestWalkCost:
    @pytest.mark.parametrize("loop", LOOPS)
    def test_empty_walk_free(self, mem, loop):
        assert walk(mem, [], loop, False) == 0.0
        assert walk(mem, [(128, 0), (0, 3)], loop, True) == 0.0

    def test_contiguous_copy(self, mem):
        """One block: the call overhead plus the bytes at the rate of the
        working set, or of main memory when cold."""
        p = mem.params
        for n in (1, 4 * KiB, 64 * KiB, 1 * MiB):
            assert mem.walk_cost([(n, 1)], "copy", False) == (
                p.copy_call_overhead + n / mem.copy_bandwidth(n))
            assert mem.walk_cost([(n, 1)], "copy", True) == (
                p.copy_call_overhead + n / p.main_copy_bw)

    def test_blocked_copy_rated_by_its_bytes(self, mem):
        """A 256 kiB walk in 4 kiB blocks streams at the rate of 256 kiB,
        not of one block, and pays a per-block term after the first."""
        p = mem.params
        assert mem.walk_cost([(4 * KiB, 64)], "copy", False) == (
            p.copy_call_overhead + 63 * p.per_block_overhead
            + 256 * KiB / p.main_copy_bw)

    def test_per_block_overhead_dominates_tiny_blocks(self, mem):
        for loop in LOOPS:
            assert walk(mem, [(8, 8192)], loop, False) > walk(
                mem, [(8192, 8)], loop, False)

    def test_ff_rate_terms(self, mem):
        """The ff loop's two constants: x1.1 for 64 B-4 kiB blocks (the
        intra-node surpass), x0.5 for mixed lengths beyond L2 (thrash)."""
        p, cfg = mem.params, DEFAULT_PROTOCOL
        bw = p.main_copy_bw
        assert walk(mem, [(512, 32)], "ff", True) == (
            p.copy_call_overhead + 32 * cfg.direct_pack_block_cost
            + 16 * KiB / (bw * 1.1))
        groups = [(8, 1), (8 * KiB, 64)]
        nbytes = 8 + 512 * KiB
        assert walk(mem, groups, "ff", True) == (
            p.copy_call_overhead + 65 * cfg.direct_pack_block_cost
            + nbytes / (bw * 0.5))

    def test_unknown_loop(self, mem):
        with pytest.raises(ValueError, match="copy loop"):
            mem.walk_cost([(8, 1)], "memcpy", False)


# -- properties over drawn ``(block, count)`` groups ----------------------------

_groups = st.lists(st.tuples(st.integers(1, 8 * KiB), st.integers(1, 64)),
                   min_size=1, max_size=4)


@given(groups=_groups, extra=st.tuples(st.integers(1, 8 * KiB),
                                       st.integers(1, 64)),
       cold=st.booleans())
def test_property_more_bytes_never_cost_less(groups, extra, cold):
    mem = MemorySystem(MemoryParams())
    for loop in LOOPS:
        cost = walk(mem, groups, loop, cold)
        assert 0 < cost <= walk(mem, groups + [extra], loop, cold), loop


@given(groups=_groups, cold=st.booleans())
def test_property_contiguous_never_dearer(groups, cold):
    """For the copy and generic loops a contiguous walk of the same bytes
    in the same cache state is never dearer than the blocked walk; the ff
    loop's only exception is its x1.1 rate term for 64 B-4 kiB blocks."""
    mem = MemorySystem(MemoryParams())
    nbytes = sum(length * count for length, count in groups)
    for loop in LOOPS:
        contiguous = walk(mem, [(nbytes, 1)], loop, cold)
        if loop == "ff" and all(64 <= n <= 4 * KiB for n, _ in groups) and not (
                64 <= nbytes <= 4 * KiB):
            bw = mem.params.main_copy_bw if cold else mem.copy_bandwidth(nbytes)
            contiguous -= nbytes / bw - nbytes / (bw * 1.1)
        assert walk(mem, groups, loop, cold) >= contiguous * (1 - 1e-12), loop


@given(groups=_groups, cold=st.booleans())
def test_property_ff_never_dearer_than_generic(groups, cold):
    mem = MemorySystem(MemoryParams())
    assert walk(mem, groups, "ff", cold) <= walk(mem, groups, "generic", cold)


@given(groups=_groups)
def test_property_cold_never_cheaper_than_warm(groups):
    mem = MemorySystem(MemoryParams())
    for loop in LOOPS:
        assert walk(mem, groups, loop, True) >= walk(mem, groups, loop, False)
