"""Unit + property tests for the memory substrate (repro.memlib)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memlib import (
    AddressSpace,
    Block,
    OutOfMemory,
    copy_between,
    double_strided_blocks,
    merge_adjacent,
    strided_blocks,
    strided_view,
    total_bytes,
)


def copy_within(space: AddressSpace, dst: int, src: int, nbytes: int) -> None:
    """memmove inside this space (handles overlap like memmove)."""
    space._check(src, nbytes)
    space._check(dst, nbytes)
    # ndarray slice assignment with overlap is undefined; go through a
    # copy only when ranges actually overlap.
    if src < dst < src + nbytes or dst < src < dst + nbytes:
        chunk = space.mem[src : src + nbytes].copy()
        space.mem[dst : dst + nbytes] = chunk
    else:
        space.mem[dst : dst + nbytes] = space.mem[src : src + nbytes]


class TestAddressSpace:
    def test_alloc_returns_zeroed_buffer(self):
        space = AddressSpace(1024)
        buf = space.alloc(100)
        assert buf.nbytes == 100
        assert not buf.read().any()

    def test_alloc_alignment(self):
        space = AddressSpace(1024)
        space.alloc(3)
        buf = space.alloc(8, alignment=64)
        assert buf.base % 64 == 0

    def test_alloc_exhaustion(self):
        space = AddressSpace(128)
        space.alloc(100)
        with pytest.raises(OutOfMemory):
            space.alloc(100)

    def test_write_read_roundtrip(self):
        space = AddressSpace(256)
        payload = bytes(range(64))
        space.write(10, payload)
        assert space.read(10, 64).tobytes() == payload

    def test_out_of_range_access_rejected(self):
        space = AddressSpace(64)
        with pytest.raises(IndexError):
            space.read(60, 10)
        with pytest.raises(IndexError):
            space.write(-1, b"x")

    def test_copy_within_non_overlapping(self):
        space = AddressSpace(256)
        space.write(0, bytes(range(16)))
        copy_within(space, 100, 0, 16)
        assert space.read(100, 16).tobytes() == bytes(range(16))

    def test_copy_within_overlapping_forward(self):
        space = AddressSpace(64)
        space.write(0, bytes(range(16)))
        copy_within(space, 4, 0, 16)  # overlap, memmove semantics
        assert space.read(4, 16).tobytes() == bytes(range(16))

    def test_copy_between_spaces(self):
        a = AddressSpace(128, owner="a")
        b = AddressSpace(128, owner="b")
        a.write(0, b"hello world!")
        copy_between(b, 50, a, 0, 12)
        assert b.read(50, 12).tobytes() == b"hello world!"

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            AddressSpace(0)


class TestBuffer:
    def test_slice_and_typed_view(self):
        space = AddressSpace(256)
        buf = space.alloc(64)
        view = buf.as_array(np.float64)
        view[:] = np.arange(8, dtype=np.float64)
        sub = buf.slice(8, 8)
        assert sub.as_array(np.float64)[0] == 1.0

    def test_slice_bounds_checked(self):
        space = AddressSpace(64)
        buf = space.alloc(16)
        with pytest.raises(ValueError):
            buf.slice(10, 10)

    def test_typed_view_size_mismatch(self):
        space = AddressSpace(64)
        buf = space.alloc(10)
        with pytest.raises(ValueError):
            buf.as_array(np.float64)

    def test_write_offset_and_fill(self):
        space = AddressSpace(64)
        buf = space.alloc(16)
        buf.fill(0xAB)
        buf.write(b"\x01\x02", offset=4)
        raw = buf.tobytes()
        assert raw[0] == 0xAB and raw[4] == 1 and raw[5] == 2

    def test_write_overflow_rejected(self):
        space = AddressSpace(64)
        buf = space.alloc(4)
        with pytest.raises(ValueError):
            buf.write(b"12345")


class TestLayout:
    def test_strided_blocks_basic(self):
        blocks = strided_blocks(count=3, blocklen=8, stride=32, base=100)
        assert blocks == [Block(100, 8), Block(132, 8), Block(164, 8)]
        assert total_bytes(blocks) == 24

    def test_double_strided(self):
        blocks = double_strided_blocks(
            outer_count=2, outer_stride=100, inner_count=2, inner_stride=20, blocklen=4
        )
        assert blocks == [Block(0, 4), Block(20, 4), Block(100, 4), Block(120, 4)]

    def test_merge_adjacent_coalesces(self):
        blocks = [Block(0, 8), Block(8, 8), Block(32, 4)]
        assert merge_adjacent(blocks) == [Block(0, 16), Block(32, 4)]

    def test_merge_rejects_overlap(self):
        with pytest.raises(ValueError):
            merge_adjacent([Block(0, 10), Block(5, 10)])

    def test_merge_unsorted_input(self):
        blocks = [Block(16, 8), Block(0, 16)]
        assert merge_adjacent(blocks) == [Block(0, 24), ]

    def test_zero_stride_vector_rejected_only_by_merge(self):
        # strided_blocks itself permits any stride (hvector semantics);
        # overlap is caught when merging.
        blocks = strided_blocks(count=2, blocklen=8, stride=0)
        with pytest.raises(ValueError):
            merge_adjacent(blocks)


class TestStridedView:
    def test_rows_alias_the_buffer(self):
        mem = np.arange(40, dtype=np.uint8)
        view = strided_view(mem, 3, 3, 4, 10)
        assert view.shape == (3, 4)
        assert view.tolist() == [[3, 4, 5, 6], [13, 14, 15, 16], [23, 24, 25, 26]]
        view[1] = 0
        assert mem[13:17].tolist() == [0, 0, 0, 0] and mem[17] == 17

    @pytest.mark.parametrize("start, count, size, stride", [
        (4, 1, 6, 0),     # one row: the stride is irrelevant
        (4, 1, 6, 99),
        (8, 4, 8, 8),     # rows back to back, ending exactly at the end
        (36, 1, 4, 4),
        (30, 2, 2, 8),    # strided, last row ends exactly at the end
    ])
    def test_contiguous_and_exact_fit(self, start, count, size, stride):
        mem = np.arange(40, dtype=np.uint8)
        view = strided_view(mem, start, count, size, stride)
        assert view.shape == (count, size)
        for i in range(count):
            assert view[i].tolist() == mem[start + i * stride:][:size].tolist()
        assert np.shares_memory(view, mem)

    @pytest.mark.parametrize("start, count, size, stride", [
        (37, 1, 4, 4),    # one row past the end
        (8, 5, 8, 8),     # back-to-back rows past the end
        (30, 2, 3, 8),    # last strided row past the end
        (41, 1, 0, 0),    # start outside, even with nothing to view
        (400, 2, 1, 4),
        (-1, 1, 4, 4),    # negative start: contiguous ...
        (-1, 2, 2, 8),    # ... and strided
        (0, -1, 4, 4),    # negative shape
        (0, 2, -4, 8),
    ])
    def test_out_of_range_is_a_value_error(self, start, count, size, stride):
        mem = np.arange(40, dtype=np.uint8)
        with pytest.raises(ValueError, match="do not fit 40 B"):
            strided_view(mem, start, count, size, stride)

    @pytest.mark.parametrize("start, count, size, stride", [
        (5, 0, 4, 4), (5, 0, 4, 9), (5, 3, 0, 0), (5, 3, 0, 7), (40, 0, 0, 0),
    ])
    def test_empty_views(self, start, count, size, stride):
        mem = np.arange(40, dtype=np.uint8)
        assert strided_view(mem, start, count, size, stride).shape == (count, size)

    @pytest.mark.parametrize("stride", [4, 10])
    def test_read_only_buffer_gives_read_only_view(self, stride):
        mem = np.arange(40, dtype=np.uint8)
        mem.flags.writeable = False
        view = strided_view(mem, 0, 3, 4, stride)
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 1

    def test_a_sliced_buffer_is_its_own_bounds(self):
        mem = np.arange(40, dtype=np.uint8)
        window = mem[10:30]
        assert strided_view(window, 0, 2, 4, 16).tolist() == [
            [10, 11, 12, 13], [26, 27, 28, 29]]
        with pytest.raises(ValueError):
            strided_view(window, 1, 2, 4, 16)  # would reach into mem[30:]


@given(
    count=st.integers(min_value=0, max_value=20),
    blocklen=st.integers(min_value=1, max_value=64),
    gap=st.integers(min_value=0, max_value=64),
)
def test_property_strided_blocks_cover_expected_bytes(count, blocklen, gap):
    """Strided blocks with stride >= blocklen never overlap and cover
    count*blocklen bytes; merging preserves total coverage."""
    stride = blocklen + gap
    blocks = strided_blocks(count, blocklen, stride)
    assert total_bytes(blocks) == count * blocklen
    merged = merge_adjacent(blocks)
    assert total_bytes(merged) == count * blocklen
    if gap > 0:
        assert len(merged) == count
    elif count:
        assert len(merged) == 1


@given(data=st.binary(min_size=1, max_size=256), offset=st.integers(0, 64))
def test_property_space_roundtrip(data, offset):
    space = AddressSpace(512)
    space.write(offset, data)
    assert space.read(offset, len(data)).tobytes() == data
