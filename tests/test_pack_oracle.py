"""Differential test oracles for the packing plans.

Two deliberately naive oracles, checked against a seeded random generator
of nested vector/indexed/struct/resized datatype trees:

* a **recursive tree walk** over the datatype tree resolves the memory
  address of every data byte with no vectorization, no merging and no
  stacks.  The engine's packed *order* is leaf-major within an instance
  (the flattened representation's Fig. 6 iteration; canonical MPI tree
  order differs whenever a constructor wraps a multi-leaf oldtype), so
  this oracle asserts the order-independent invariant: flattening maps
  exactly the same multiset of byte addresses — nothing lost, nothing
  duplicated, nothing invented by the commit-time merge rules;
* a **recursive leaf-stack walk** re-derives every block offset of the
  committed representation by pure-Python recursion over the level
  stacks (no numpy, no mixed-radix arithmetic) and defines the expected
  byte-for-byte stream.  ``PackPlan.execute_pack`` must agree with it
  exactly, and ``PackPlan.execute_unpack`` with its per-byte scatter,
  including ranges split at block boundaries +/- 1.

The same trees then drive the plan's **segment executor**: ranges split at
every segment boundary +/- 1, ``groups_in_range`` against a run-by-run
derivation from the plan's run table (the chunk cost model's contract),
and hand-built layouts for each copy kernel — uniform stride, irregular
displacements and block lengths, negative and zero stride, rows that
overlap — and a buffer too short at either end for each.
"""

import random

import numpy as np
import pytest

from repro.mpi.datatypes import (
    BYTE,
    CHAR,
    DOUBLE,
    INT,
    SHORT,
    Contiguous,
    Hindexed,
    Hvector,
    Indexed,
    Resized,
    Struct,
    Vector,
)
from repro.mpi.datatypes.basic import BasicType
from repro.mpi.flatten import PackError, PackPlan, get_plan

N_CASES = 210

BASICS = [BYTE, CHAR, SHORT, INT, DOUBLE]


# -- the oracle -------------------------------------------------------------------


def tree_walk_offsets(dtype) -> list[int]:
    """Byte offsets (instance-relative) of every data byte, in canonical
    MPI tree order.

    Pure recursive tree walk — the slow traversal the ff-stacks replace.
    Used for the order-independent address-coverage check (the engine's
    stream is leaf-major, which permutes this order for constructors that
    wrap multi-leaf oldtypes).
    """
    if isinstance(dtype, BasicType):
        return list(range(dtype.size))
    if isinstance(dtype, Contiguous):
        child = tree_walk_offsets(dtype.oldtype)
        return [
            i * dtype.oldtype.extent + o
            for i in range(dtype.count)
            for o in child
        ]
    if isinstance(dtype, Hvector):  # covers Vector
        child = tree_walk_offsets(dtype.oldtype)
        return [
            i * dtype.stride_bytes + j * dtype.oldtype.extent + o
            for i in range(dtype.count)
            for j in range(dtype.blocklength)
            for o in child
        ]
    if isinstance(dtype, Hindexed):  # covers Indexed
        child = tree_walk_offsets(dtype.oldtype)
        return [
            disp + j * dtype.oldtype.extent + o
            for disp, blk in zip(dtype.displacements_bytes, dtype.blocklengths)
            for j in range(blk)
            for o in child
        ]
    if isinstance(dtype, Struct):
        out: list[int] = []
        for disp, blk, ftype in zip(
            dtype.displacements_bytes, dtype.blocklengths, dtype.types
        ):
            child = tree_walk_offsets(ftype)
            out.extend(
                disp + j * ftype.extent + o for j in range(blk) for o in child
            )
        return out
    if isinstance(dtype, Resized):
        return tree_walk_offsets(dtype.oldtype)
    raise TypeError(f"oracle cannot walk {dtype!r}")


def naive_block_offsets(leaf) -> list[int]:
    """Every block offset of one leaf, by pure recursion over the levels.

    Outermost level varies slowest — the iteration order Fig. 6
    prescribes — with none of the numpy broadcasting or mixed-radix
    arithmetic ``LeafSpec.block_offsets`` uses.
    """

    def rec(levels):
        if not levels:
            return [0]
        head, rest = levels[0], levels[1:]
        tail = rec(rest)
        return [i * head.extent + o for i in range(head.count) for o in tail]

    return [leaf.offset + o for o in rec(list(leaf.levels))]


def oracle_offsets(ft) -> list[int]:
    """Byte offsets (instance-relative) of every data byte, in the
    leaf-major packed-stream order of the committed representation."""
    offs: list[int] = []
    for leaf in ft.leaves:
        for boff in naive_block_offsets(leaf):
            offs.extend(range(boff, boff + leaf.size))
    return offs


def oracle_pack(mem, base, dtype, count, offs):
    """Per-byte sequential gather of ``count`` instances."""
    return np.array(
        [
            mem[base + inst * dtype.extent + o]
            for inst in range(count)
            for o in offs
        ],
        dtype=np.uint8,
    )


def oracle_unpack_range(mem, base, dtype, count, offs, byte_offset, data):
    """Per-byte sequential scatter of a packed-stream slice."""
    size = len(offs)
    for k in range(len(data)):
        inst, within = divmod(byte_offset + k, size)
        mem[base + inst * dtype.extent + offs[within]] = data[k]


# -- the generator ----------------------------------------------------------------


def random_dtype(rng: random.Random, depth: int = 3):
    """A random non-overlapping datatype tree with odd extents mixed in."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(BASICS)
    kind = rng.choice(
        ["contig", "vector", "hvector", "indexed", "struct", "resized"]
    )
    old = random_dtype(rng, depth - 1)
    if kind == "contig":
        return Contiguous(rng.randint(1, 3), old)
    if kind == "vector":
        blocklen = rng.randint(1, 3)
        stride = blocklen + rng.randint(0, 3)  # >= blocklen: no overlap
        return Vector(rng.randint(1, 3), blocklen, stride, old)
    if kind == "hvector":
        blocklen = rng.randint(1, 2)
        # Byte stride: at least the block span, plus an odd-ish gap.
        stride = blocklen * old.extent + rng.choice([0, 1, 3, 5, 9])
        return Hvector(rng.randint(1, 3), blocklen, stride, old)
    if kind == "indexed":
        blocklengths, displacements = [], []
        cursor = 0
        for _ in range(rng.randint(1, 3)):
            blk = rng.randint(0, 3)
            disp = cursor + rng.randint(0, 2)
            blocklengths.append(blk)
            displacements.append(disp)
            cursor = disp + blk + 1  # disjoint entries
        return Indexed(blocklengths, displacements, old)
    if kind == "struct":
        blks, disps, types = [], [], []
        cursor = 0
        for _ in range(rng.randint(1, 3)):
            ftype = rng.choice(BASICS) if rng.random() < 0.5 else old
            blk = rng.randint(0, 2)
            disp = cursor + rng.randint(0, 7)
            blks.append(blk)
            disps.append(disp)
            types.append(ftype)
            cursor = disp + blk * ftype.extent
        return Struct(blks, disps, types)
    # resized: odd extent padding (never shrinks, so instances stay disjoint)
    return Resized(old, lb=old.lb, extent=old.extent + rng.choice([1, 3, 5, 7]))


def _base_and_mem(ft, count, seed):
    lo, hi = get_plan(ft, count).bounds
    base = 64 - min(0, lo)
    rng = np.random.default_rng(seed)
    size = base + max(0, hi) + 128
    return base, rng.integers(0, 256, size=size, dtype=np.uint8)


def block_boundaries(ft, count) -> list[int]:
    """All packed-stream offsets where a basic block starts or ends."""
    bounds = {0, ft.size * count}
    for inst in range(count):
        start = inst * ft.size
        for leaf in ft.leaves:
            bounds.update(start + k * leaf.size
                          for k in range(leaf.block_count + 1))
            start += leaf.size * leaf.block_count
    return sorted(bounds)


# -- the differential suite --------------------------------------------------------


@pytest.mark.parametrize("seed", range(N_CASES))
def test_differential_oracle(seed):
    rng = random.Random(1000 + seed)
    dtype = random_dtype(rng).commit()
    count = rng.randint(1, 8)
    ft = dtype.flattened

    tree_offs = tree_walk_offsets(dtype)
    assert len(tree_offs) == dtype.size, "oracle and datatype disagree on size"
    offs = oracle_offsets(ft)
    # Order-independent invariant: commit-time merging may permute the
    # stream (leaf-major order) but must cover the exact same addresses.
    assert sorted(offs) == sorted(tree_offs)

    base, mem = _base_and_mem(ft, count, seed)
    expected = oracle_pack(mem, base, dtype, count, offs)
    total = expected.nbytes

    # Full pack: plan vs oracle.
    plan = get_plan(ft, count)
    assert np.array_equal(plan.execute_pack(mem, base), expected)

    if total == 0:
        assert plan.execute_pack(mem, base, 0, 0).nbytes == 0
        return

    # Ranges split at block boundaries +/- 1.
    bounds = block_boundaries(ft, count)
    picks = rng.sample(bounds, min(3, len(bounds)))
    starts = sorted(
        s
        for b in picks
        for s in (b - 1, b, b + 1)
        if 0 <= s <= total
    )
    for s in starts:
        n = rng.randint(0, min(total - s, 2048))
        payload = expected[s : s + n]
        assert np.array_equal(plan.execute_pack(mem, base, s, n), payload)
        check_stream_view(plan, mem, base, s, n)

        scratch_oracle = _base_and_mem(ft, count, seed + 7)[1]
        scratch_plan = scratch_oracle.copy()
        oracle_unpack_range(scratch_oracle, base, dtype, count, offs, s, payload)
        plan.execute_unpack(scratch_plan, base, s, payload)
        assert np.array_equal(scratch_plan, scratch_oracle), ("plan unpack", s, n)


def check_stream_view(plan, mem, base, s, n):
    """``stream_view`` holds ``execute_pack``'s bytes, and aliases ``mem``
    exactly when the plan is a single run (an empty range aliases
    nothing)."""
    view = plan.stream_view(mem, base, s, n)
    assert np.array_equal(view, plan.execute_pack(mem, base, s, n)), (s, n)
    assert np.shares_memory(view, mem) == (plan.n_runs == 1 and n > 0), (s, n)


def test_oracle_case_count():
    """The differential suite covers at least the 200 cases ISSUE asks for."""
    assert N_CASES >= 200


# -- the segment executor -----------------------------------------------------------


def naive_groups(plan, byte_offset, nbytes) -> list[tuple[int, int]]:
    """``groups_in_range`` derived run by run from the plan's run table:
    the bytes each run contributes to the range, equal neighbours merged."""
    groups: list[tuple[int, int]] = []
    pos = 0
    for length in plan.run_lengths.tolist():
        take = min(pos + length, byte_offset + nbytes) - max(pos, byte_offset)
        pos += length
        if take <= 0:
            continue
        if groups and groups[-1][0] == take:
            groups[-1] = (take, groups[-1][1] + 1)
        else:
            groups.append((take, 1))
    return groups


def check_segment_executor(plan, ft, count, base, mem, expected, ranges):
    """Plan pack vs the oracle stream, plan unpack vs the oracle's per-byte
    scatter and the cost groups vs the run table, for every
    ``(start, nbytes)``."""
    offs = oracle_offsets(ft)
    blank = np.zeros_like(mem)
    for s, n in ranges:
        payload = expected[s : s + n]
        assert np.array_equal(plan.execute_pack(mem, base, s, n), payload), (s, n)
        assert plan.groups_in_range(s, n) == naive_groups(plan, s, n), (s, n)
        check_stream_view(plan, mem, base, s, n)
        scratch_oracle, scratch_plan = blank.copy(), blank.copy()
        oracle_unpack_range(scratch_oracle, base, ft, count, offs, s, payload)
        plan.execute_unpack(scratch_plan, base, s, payload)
        assert np.array_equal(scratch_plan, scratch_oracle), ("unpack", s, n)


def segment_ranges(plan, rng) -> list[tuple[int, int]]:
    """Ranges starting and ending at every segment boundary +/- 1, plus
    random ones."""
    total = plan.total
    seg_starts = plan.run_starts[plan.segments[:, 0]].tolist() + [total]
    edges = sorted(
        {
            e
            for b in seg_starts
            for e in (b - 1, b, b + 1)
            if 0 <= e <= total
        }
    )
    ranges = [(s, rng.choice([e for e in edges if e >= s]) - s) for s in edges]
    ranges += [(s, rng.randint(0, total - s)) for s in edges]
    for _ in range(20):
        s = rng.randint(0, total)
        ranges.append((s, rng.randint(0, total - s)))
    return ranges


@pytest.mark.parametrize("seed", range(N_CASES))
def test_segment_executor(seed):
    rng = random.Random(1000 + seed)
    dtype = random_dtype(rng).commit()
    count = rng.randint(1, 8)
    ft = dtype.flattened
    plan = PackPlan(ft, count)

    # The segments tile the run table, which stays the plan's definition.
    # A segment's runs share one length unless it is irregular (stride 0
    # over several runs), whose offsets and lengths the run table holds.
    runs = 0
    for first, offset, length, stride, n_runs in plan.segments.tolist():
        assert first == runs
        runs += n_runs
        assert plan.run_offsets[first] == offset
        assert plan.run_lengths[first] == length
        if stride:
            assert (plan.run_lengths[first : first + n_runs] == length).all()
            steps = np.diff(plan.run_offsets[first : first + n_runs])
            assert stride > 0 and (steps == stride).all()
    assert runs == plan.n_runs

    base, mem = _base_and_mem(ft, count, seed)
    expected = oracle_pack(mem, base, dtype, count, oracle_offsets(ft))
    check_segment_executor(
        plan, ft, count, base, mem, expected, segment_ranges(plan, rng)
    )


class TestSegmentKernels:
    """One hand-built layout per copy kernel and per reason to leave it."""

    @staticmethod
    def _check(dtype, count, seed=5):
        ft = dtype.commit().flattened
        plan = PackPlan(ft, count)
        base, mem = _base_and_mem(ft, count, seed)
        expected = oracle_pack(mem, base, dtype, count, oracle_offsets(ft))
        check_segment_executor(
            plan, ft, count, base, mem, expected,
            segment_ranges(plan, random.Random(seed)),
        )
        return plan

    def test_uniform_stride_is_one_segment(self):
        plan = self._check(Vector(300, 4, 8, DOUBLE), 1)
        assert plan.segments.tolist() == [[0, 0, 32, 64, 300]]

    def test_long_rows_are_one_segment_each(self):
        plan = self._check(Hvector(3, 1, 9000, Vector(40, 4, 8, DOUBLE)), 1)
        assert [seg[3:] for seg in plan.segments.tolist()] == [[64, 40]] * 3

    def test_short_rows_fold_into_an_irregular_segment(self):
        plan = self._check(Hvector(30, 1, 500, Vector(3, 1, 2, DOUBLE)), 1)
        assert plan.segments.tolist() == [[0, 0, 8, 0, 90]]

    def test_irregular_displacements_keep_the_index_path(self):
        plan = self._check(Indexed([2] * 40, [7 * k * k for k in range(40)], INT), 2)
        assert (plan.segments[:, 3] == 0).all()

    @staticmethod
    def _assert_one_irregular_segment(plan):
        """One segment, one index gather: the work does not grow with
        the blocks."""
        [[first, _, _, stride, n_runs]] = plan.segments.tolist()
        assert (first, stride, n_runs) == (0, 0, plan.n_runs) and n_runs > 1
        assert len(list(plan.run_groups(0, plan.total))) <= 3

    def test_mixed_block_lengths_fold_into_one_irregular_segment(self):
        """Indexed blocks of 8, 16 and 24 B at irregular gaps."""
        rng = random.Random(25)
        lengths = [rng.choice([1, 2, 3]) for _ in range(300)]
        displs, cursor = [], 0
        for blk in lengths:
            cursor += rng.randint(1, 3)
            displs.append(cursor)
            cursor += blk
        plan = self._check(Indexed(lengths, displs, DOUBLE), 1)
        assert set(plan.run_lengths.tolist()) == {8, 16, 24}
        self._assert_one_irregular_segment(plan)

    def test_irregular_segments_between_strided_ones(self):
        """Short fields fold, a long vector field stays strided: ranges
        run out of an irregular segment into a strided one and back."""
        record = Struct([3, 2, 1], [0, 8, 32], [BYTE, INT, Vector(300, 1, 2, DOUBLE)])
        plan = self._check(record, 3)
        assert (plan.segments[:, 3] > 0).tolist() == [False, True] * 3

    def test_struct_fields_fold_into_one_irregular_segment(self):
        """A four-field record with holes, sent 64 times."""
        record = Struct([5, 3, 2, 3], [0, 8, 16, 32], [BYTE, SHORT, INT, DOUBLE])
        plan = self._check(Resized(record, lb=0, extent=64), 64)
        assert plan.n_runs == 4 * 64
        self._assert_one_irregular_segment(plan)

    @pytest.mark.parametrize("stride", [-64, 0])
    def test_negative_and_zero_stride(self, stride):
        """Not a positive stride: every run is its own stretch, folded
        into the index path (zero stride rewrites one block in order)."""
        plan = self._check(Hvector(20, 2, stride, DOUBLE), 3)
        assert (plan.segments[:, 3] == 0).all()

    def test_overlapping_rows_unpack_in_stream_order(self):
        """Stride below the run length: the strided pack is legal, the
        unpack must let the later run win, as the per-byte oracle does."""
        plan = self._check(Hvector(20, 4, 8, DOUBLE), 1)
        assert plan.segments.tolist() == [[0, 0, 32, 8, 20]]

    def test_overlapping_instances(self):
        self._check(Resized(Vector(300, 4, 8, DOUBLE), lb=0, extent=64), 4)

    def test_count_zero(self):
        ft = Vector(4, 1, 2, DOUBLE).commit().flattened
        plan = PackPlan(ft, 0)
        mem = np.zeros(64, dtype=np.uint8)
        assert plan.segments.shape == (0, 5)
        assert list(plan.run_groups(0, 0)) == []
        assert plan.groups_in_range(0, 0) == []
        assert plan.execute_pack(mem, 0).nbytes == 0
        plan.execute_unpack(mem, 0, 0, np.empty(0, dtype=np.uint8))


class TestKernelBounds:
    """A byte outside the buffer raises ``PackError`` in every copy kernel,
    below its start as past its end, before anything is written."""

    KERNELS = {
        "slice": Hindexed([64], [8], BYTE),
        "strided": Vector(300, 4, 8, DOUBLE),
        "overlapping rows": Hvector(20, 4, 8, DOUBLE),
        "index": Indexed([1, 2, 3] * 10, [5 * k for k in range(30)], DOUBLE),
    }

    @pytest.mark.parametrize("end", ["below", "past"])
    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_out_of_range_raises(self, kernel, end):
        plan = PackPlan(self.KERNELS[kernel].commit().flattened, 1)
        assert len(list(plan.run_groups(0, plan.total))) == 1
        lo, hi = plan.bounds
        mem = np.zeros(hi - lo, dtype=np.uint8)
        data = np.ones(plan.total, dtype=np.uint8)
        plan.execute_unpack(mem, -lo, 0, data)  # fits exactly
        assert np.array_equal(plan.execute_pack(mem, -lo), data)
        base = -lo - 1 if end == "below" else -lo + 1
        mem[:] = 0
        with pytest.raises(PackError):
            plan.execute_pack(mem, base)
        with pytest.raises(PackError):
            plan.execute_unpack(mem, base, 0, data)
        assert not mem.any()


class TestStreamView:
    """The transport's copy-free read of the packed stream."""

    def test_single_run_with_lower_bound_is_a_view(self):
        dtype = Hindexed([64], [24], BYTE).commit()
        plan = PackPlan(dtype.flattened, 1)
        assert plan.n_runs == 1 and plan.bounds == (24, 88)
        mem = np.random.default_rng(3).integers(0, 256, 128, dtype=np.uint8)
        for s, n in [(0, 64), (5, 17), (63, 1), (64, 0), (0, 0)]:
            check_stream_view(plan, mem, 8, s, n)
        view = plan.stream_view(mem, 8, 5, 17)
        assert view.ctypes.data == mem[8 + 24 + 5 :].ctypes.data

    def test_contiguous_instances_coalesce_into_a_view(self):
        plan = PackPlan(DOUBLE.commit().flattened, 40)
        mem = np.arange(400, dtype=np.uint8)
        assert plan.n_runs == 1
        check_stream_view(plan, mem, 16, 100, 150)

    def test_multi_run_plan_is_a_fresh_copy(self):
        plan = PackPlan(Vector(8, 1, 2, DOUBLE).commit().flattened, 1)
        mem = np.arange(256, dtype=np.uint8)
        check_stream_view(plan, mem, 0, 3, 50)

    def test_out_of_range_requests_raise(self):
        plan = PackPlan(Hindexed([64], [24], BYTE).commit().flattened, 1)
        mem = np.zeros(100, dtype=np.uint8)
        for base, s, n in [(0, 0, 65), (0, -1, 4), (0, 65, 0), (0, 10, -1),
                           (20, 0, 64), (-30, 0, 8)]:
            with pytest.raises(PackError):
                plan.stream_view(mem, base, s, n)
        assert plan.stream_view(mem, 12, 0, 64).nbytes == 64  # ends at 100


class TestShrunkResizedPackOnly:
    """Overlapping instances (shrunk Resized extent): pack is still defined
    (reads commute); unpack is order-dependent, so only pack is compared."""

    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_overlapping_instances_pack(self, count):
        dtype = Resized(Vector(3, 1, 2, DOUBLE), lb=0, extent=16).commit()
        ft = dtype.flattened
        lo, hi = PackPlan(ft, 1).bounds
        assert ft.extent < hi - lo  # genuinely shrunk
        base, mem = _base_and_mem(ft, count, seed=11)
        offs = oracle_offsets(ft)
        assert sorted(offs) == sorted(tree_walk_offsets(dtype))
        expected = oracle_pack(mem, base, dtype, count, offs)
        plan = PackPlan(ft, count)
        assert np.array_equal(plan.execute_pack(mem, base), expected)
        for s, n in [(0, 8), (7, 9), (23, 25), (ft.size * count - 1, 1)]:
            assert np.array_equal(
                plan.execute_pack(mem, base, s, n), expected[s : s + n]
            )
