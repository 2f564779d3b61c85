"""Tests for MPI datatype construction, commit and flattening."""

import random
import tracemalloc

import pytest

from repro.mpi.datatypes import (
    BYTE,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    Contiguous,
    DatatypeError,
    Hindexed,
    Hvector,
    Indexed,
    Resized,
    Struct,
    Vector,
)
from repro.mpi.flatten import Level, build_flattened, get_plan, leaves_of


class TestBasicTypes:
    def test_sizes(self):
        assert BYTE.size == 1
        assert INT.size == 4
        assert DOUBLE.size == 8
        assert FLOAT.extent == 4

    def test_basic_is_contiguous(self):
        assert DOUBLE.is_contiguous
        assert DOUBLE.depth == 1


class TestContiguous:
    def test_size_extent(self):
        t = Contiguous(10, DOUBLE)
        assert t.size == 80 and t.extent == 80 and t.lb == 0

    def test_flatten_merges_to_single_block(self):
        ft = Contiguous(10, DOUBLE).commit().flattened
        assert len(ft.leaves) == 1
        leaf = ft.leaves[0]
        assert leaf.size == 80 and leaf.levels == ()

    def test_nested_contiguous_still_single_block(self):
        t = Contiguous(4, Contiguous(5, INT))
        ft = t.commit().flattened
        assert len(ft.leaves) == 1 and ft.leaves[0].size == 80

    def test_zero_count(self):
        t = Contiguous(0, INT).commit()
        assert t.size == 0 and t.extent == 0
        assert t.flattened.leaves == ()

    def test_negative_count_rejected(self):
        with pytest.raises(DatatypeError):
            Contiguous(-1, INT)


class TestVector:
    def test_paper_noncontig_vector(self):
        """The noncontig benchmark's type: blocks of doubles, gap = block."""
        t = Vector(count=16, blocklength=1, stride=2, oldtype=DOUBLE)
        assert t.size == 128
        assert t.extent == (16 - 1) * 16 + 8
        ft = t.commit().flattened
        assert len(ft.leaves) == 1
        leaf = ft.leaves[0]
        assert leaf.size == 8
        assert leaf.levels == (Level(16, 16),)

    def test_blocklength_merges_into_block(self):
        t = Vector(count=4, blocklength=3, stride=5, oldtype=INT)
        leaf = t.commit().flattened.leaves[0]
        assert leaf.size == 12  # 3 ints fused into one block
        assert leaf.levels == (Level(4, 20),)

    def test_unit_stride_vector_is_contiguous(self):
        t = Vector(count=8, blocklength=1, stride=1, oldtype=DOUBLE).commit()
        assert t.is_contiguous

    def test_hvector_byte_stride(self):
        t = Hvector(count=3, blocklength=1, stride_bytes=100, oldtype=INT)
        assert t.extent == 204
        leaf = t.commit().flattened.leaves[0]
        assert leaf.levels == (Level(3, 100),)

    def test_negative_stride(self):
        t = Hvector(count=3, blocklength=1, stride_bytes=-16, oldtype=DOUBLE)
        assert t.lb == -32
        assert t.size == 24
        offs = t.commit().flattened.leaves[0].block_offsets()
        assert list(offs) == [0, -16, -32]

    def test_vector_of_vector_two_levels(self):
        inner = Vector(count=4, blocklength=1, stride=2, oldtype=DOUBLE)
        outer = Hvector(count=3, blocklength=1, stride_bytes=256, oldtype=inner)
        leaf = outer.commit().flattened.leaves[0]
        assert leaf.levels == (Level(3, 256), Level(4, 16))
        assert outer.depth == 3


class TestClosedFormBounds:
    """``Contiguous``/``Hvector``/``Vector`` take lb/ub from their first
    and last block; a per-block min/max must agree."""

    @staticmethod
    def _brute(count, blocklength, stride_bytes, old):
        if count == 0 or blocklength == 0:
            return 0, 0
        lows = [i * stride_bytes + old.lb for i in range(count)]
        highs = [low + blocklength * old.extent for low in lows]
        return min(lows), max(highs)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_block_bounds(self, seed):
        rng = random.Random(seed)
        olds = [
            BYTE,
            DOUBLE,
            Resized(INT, lb=-3, extent=9),
            Resized(Vector(2, 1, 3, INT), lb=5, extent=40),
            Hvector(2, 1, -12, DOUBLE),
        ]
        for _ in range(25):
            old = rng.choice(olds)
            count = rng.randint(0, 40)
            blocklength = rng.randint(0, 5)
            stride = rng.randint(-9, 9)
            cases = [
                (Hvector(count, blocklength, stride, old), stride),
                (Vector(count, blocklength, stride, old), stride * old.extent),
            ]
            for dtype, stride_bytes in cases:
                lb, ub = self._brute(count, blocklength, stride_bytes, old)
                assert (dtype.lb, dtype.ub, dtype.extent) == (lb, ub, ub - lb)
                assert dtype.size == count * blocklength * old.size
            contig = Contiguous(count, old)
            lb, ub = self._brute(1, count, 0, old)
            assert (contig.lb, contig.ub, contig.extent) == (lb, ub, ub - lb)
            assert contig.size == count * old.size

    def test_commit_cost_does_not_grow_with_count(self):
        """Constructing and committing a vector allocates nothing per
        block: the closed-form bounds and the ff-stack are O(1) in
        ``count``."""
        Vector(4, 1, 2, DOUBLE).commit()  # imports and caches out of the way
        tracemalloc.start()
        try:
            vec = Vector(2**20, 1, 2, DOUBLE).commit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vec.extent == (2**20 - 1) * 16 + 8
        # One entry per block would be >= 8 MiB for the list alone.
        assert peak < 64 * 1024


class TestIndexed:
    def test_block_offsets(self):
        t = Indexed(blocklengths=[2, 1], displacements=[0, 5], oldtype=INT)
        ft = t.commit().flattened
        assert t.size == 12
        # Two leaves: one 8-byte block at 0, one 4-byte block at 20.
        assert [(l.offset, l.size) for l in ft.leaves] == [(0, 8), (20, 4)]

    def test_adjacent_entries_merge(self):
        t = Hindexed(blocklengths=[1, 1], displacements_bytes=[0, 4], oldtype=INT)
        ft = t.commit().flattened
        assert len(ft.leaves) == 1 and ft.leaves[0].size == 8

    def test_length_mismatch_rejected(self):
        with pytest.raises(DatatypeError):
            Indexed([1, 2], [0], INT)


class TestStruct:
    def make_paper_struct(self):
        """The Fig. 3 struct: an int, two chars, and trailing gap to 12 B."""
        inner = Struct(
            blocklengths=[1, 2],
            displacements_bytes=[0, 4],
            types=[INT, CHAR],
        )
        return Resized(inner, lb=0, extent=12)

    def test_paper_struct_merges_int_and_chars(self):
        """Fig. 5: the int at 0 and chars at 4 are adjacent -> one 6 B block."""
        ft = self.make_paper_struct().commit().flattened
        assert len(ft.leaves) == 1
        assert ft.leaves[0] .size == 6
        assert ft.leaves[0].offset == 0

    def test_vector_of_struct(self):
        """Fig. 3's full type: a vector of the struct."""
        struct = self.make_paper_struct()
        vec = Hvector(count=8, blocklength=1, stride_bytes=12, oldtype=struct)
        ft = vec.commit().flattened
        assert ft.size == 8 * 6
        assert len(ft.leaves) == 1
        assert ft.leaves[0].levels == (Level(8, 12),)

    def test_struct_with_gap_keeps_two_leaves(self):
        t = Struct(
            blocklengths=[1, 1],
            displacements_bytes=[0, 16],
            types=[DOUBLE, DOUBLE],
        )
        ft = t.commit().flattened
        assert len(ft.leaves) == 2
        assert ft.leaves[1].offset == 16

    def test_heterogeneous_block_sizes(self):
        t = Struct(
            blocklengths=[1, 1],
            displacements_bytes=[0, 32],
            types=[INT, DOUBLE],
        )
        ft = t.commit().flattened
        assert ft.block_length_groups() == [(4, 1), (8, 1)]


class TestResized:
    def test_extent_override(self):
        t = Resized(DOUBLE, lb=0, extent=32)
        assert t.size == 8 and t.extent == 32

    def test_tiling_with_padding(self):
        padded = Resized(INT, lb=0, extent=16)
        arr = Contiguous(4, padded).commit()
        offs = []
        for leaf in arr.flattened.leaves:
            offs.extend(leaf.block_offsets())
        assert offs == [0, 16, 32, 48]


class TestFlattenedQueries:
    def test_block_count_and_depth(self):
        vec = Vector(count=10, blocklength=1, stride=3, oldtype=DOUBLE).commit()
        (leaf,) = vec.flattened.leaves
        assert leaf.block_count == 10
        assert len(leaf.levels) == 1

    def test_span(self):
        t = Hvector(count=3, blocklength=1, stride_bytes=-16, oldtype=DOUBLE).commit()
        assert get_plan(t.flattened, 1).bounds == (-32, 8)

    def test_leaves_of_premerge_counts(self):
        t = Struct([1, 2], [0, 4], [INT, CHAR])
        raw = leaves_of(t)
        assert [(l.offset, l.size) for l in raw] == [(0, 4), (4, 2)]
        merged = build_flattened(t)
        assert len(merged.leaves) == 1
