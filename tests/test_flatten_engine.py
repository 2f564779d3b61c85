"""The packed-stream executor (``PackPlan``) against a per-block reference,
incl. property tests over random datatype trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    Subarray,
    Vector,
)
from repro.mpi.flatten import PackError, get_plan
from repro.mpi.transport.layout import as_access_run


def make_mem(size=8192, seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8)


def reference_pack(mem, base, ft, count):
    """Slow, obviously correct pack: per-block python loop."""
    out = bytearray()
    for inst in range(count):
        inst_base = base + inst * ft.extent
        for leaf in ft.leaves:
            for off in leaf.block_offsets():
                start = inst_base + int(off)
                out.extend(mem[start : start + leaf.size].tobytes())
    return np.frombuffer(bytes(out), dtype=np.uint8)


def pack(mem, base, ft, count):
    return get_plan(ft, count).execute_pack(mem, base)


SAMPLE_TYPES = [
    ("contig", lambda: Contiguous(12, INT)),
    ("vector-d", lambda: Vector(16, 1, 2, DOUBLE)),
    ("vector-blk", lambda: Vector(5, 3, 7, INT)),
    ("hvector-neg", lambda: Hvector(4, 2, -24, DOUBLE)),
    ("indexed", lambda: Indexed([3, 1, 2], [0, 7, 12], INT)),
    ("hindexed", lambda: Hindexed([2, 2], [4, 40], SHORT)),
    ("struct-gap", lambda: Struct([1, 2, 1], [0, 16, 48], [INT, DOUBLE, CHAR])),
    (
        "vec-of-struct",
        lambda: Hvector(
            6, 1, 20, Resized(Struct([1, 2], [0, 4], [INT, CHAR]), lb=0, extent=12)
        ),
    ),
    (
        "nested",
        lambda: Hvector(3, 2, 300, Vector(4, 1, 3, INT)),
    ),
]


@pytest.mark.parametrize("label,factory", SAMPLE_TYPES)
@pytest.mark.parametrize("count", [1, 2, 5])
def test_pack_matches_reference(label, factory, count):
    dtype = factory().commit()
    ft = dtype.flattened
    mem = make_mem()
    base = 1024
    assert np.array_equal(
        pack(mem, base, ft, count), reference_pack(mem, base, ft, count)
    )


@pytest.mark.parametrize("label,factory", SAMPLE_TYPES)
def test_unpack_roundtrip(label, factory):
    dtype = factory().commit()
    ft = dtype.flattened
    count = 3
    src = make_mem(seed=2)
    dst = make_mem(seed=3)
    base = 2048
    payload = reference_pack(src, base, ft, count)
    get_plan(ft, count).execute_unpack(dst, base, 0, payload)
    assert np.array_equal(reference_pack(dst, base, ft, count), payload)


@pytest.mark.parametrize("label,factory", SAMPLE_TYPES)
def test_pack_range_equals_slice_of_full_pack(label, factory):
    dtype = factory().commit()
    ft = dtype.flattened
    count = 4
    mem = make_mem(seed=4)
    base = 2048
    full = reference_pack(mem, base, ft, count)
    total = ft.size * count
    plan = get_plan(ft, count)
    for start, n in [
        (0, total),
        (0, 1),
        (1, total - 1),
        (3, 5),
        (total // 2, total - total // 2),
        (total - 1, 1),
        (7, 0),
    ]:
        got = plan.execute_pack(mem, base, start, n)
        assert np.array_equal(got, full[start : start + n]), (start, n)


@pytest.mark.parametrize("label,factory", SAMPLE_TYPES)
def test_unpack_range_chunked_roundtrip(label, factory):
    """Unpacking in arbitrary chunks reproduces the full unpack."""
    dtype = factory().commit()
    ft = dtype.flattened
    count = 3
    plan = get_plan(ft, count)
    src = make_mem(seed=5)
    base = 1024
    payload = reference_pack(src, base, ft, count)

    whole = make_mem(seed=6)
    plan.execute_unpack(whole, base, 0, payload)

    chunked = make_mem(seed=6)
    total = payload.nbytes
    pos = 0
    for chunk_len in [1, 7, 13, 64, total]:
        if pos >= total:
            break
        n = min(chunk_len, total - pos)
        plan.execute_unpack(chunked, base, pos, payload[pos : pos + n])
        pos += n
    while pos < total:
        n = min(11, total - pos)
        plan.execute_unpack(chunked, base, pos, payload[pos : pos + n])
        pos += n
    assert np.array_equal(chunked, whole)


def test_block_groups_in_range():
    ft = Vector(8, 1, 2, DOUBLE).commit().flattened
    # Split head (4 B), two whole blocks, split tail (4 B).
    assert get_plan(ft, 1).groups_in_range(4, 24) == [(4, 1), (8, 2), (4, 1)]
    # The last block of instance 0 (extent 120) abuts the first of
    # instance 1: the plan coalesces them into one 16 B run.
    assert get_plan(ft, 2).groups_in_range(0, 128) == [(8, 7), (16, 1), (8, 7)]


def test_bad_ranges_rejected():
    plan = get_plan(Contiguous(4, INT).commit().flattened, 1)
    mem = make_mem()
    with pytest.raises(PackError):
        plan.execute_pack(mem, 0, 10, 10)
    with pytest.raises(PackError):
        plan.groups_in_range(-1, 4)


class TestAsAccessRun:
    def test_simple_vector(self):
        ft = Vector(16, 1, 2, DOUBLE).commit().flattened
        run = as_access_run(ft, 1, base=100)
        assert (run.base, run.size, run.stride, run.count) == (100, 8, 16, 16)

    def test_contiguous(self):
        ft = Contiguous(4, DOUBLE).commit().flattened
        run = as_access_run(ft, 3, base=0)
        assert (run.size, run.stride, run.count) == (32, 32, 3)

    def test_count_collapses_when_tiling(self):
        # vector extent != blocks*stride -> the trailing gap is missing, so
        # multiple instances don't tile uniformly.
        ft = Vector(4, 1, 2, DOUBLE).commit().flattened
        assert ft.extent == 3 * 16 + 8
        assert as_access_run(ft, 2) is None
        padded = Resized(Vector(4, 1, 2, DOUBLE), lb=0, extent=64).commit()
        run = as_access_run(padded.flattened, 2)
        assert (run.size, run.stride, run.count) == (8, 16, 8)

    def test_struct_returns_none(self):
        ft = Struct([1, 1], [0, 16], [DOUBLE, DOUBLE]).commit().flattened
        assert as_access_run(ft, 1) is None


# -- hypothesis: random datatype trees -------------------------------------------

BASICS = [BYTE, CHAR, SHORT, INT, DOUBLE]


@st.composite
def subarray_strategy(draw, children):
    old = draw(children)
    rank = draw(st.integers(min_value=1, max_value=2))
    sizes, subsizes, starts = [], [], []
    for _ in range(rank):
        full = draw(st.integers(min_value=1, max_value=5))
        sub = draw(st.integers(min_value=0, max_value=full))
        start = draw(st.integers(min_value=0, max_value=full - sub))
        sizes.append(full)
        subsizes.append(sub)
        starts.append(start)
    return Subarray(sizes, subsizes, starts, old)


def datatype_strategy(max_depth=3):
    base = st.sampled_from(BASICS)

    def extend(children):
        return st.one_of(
            subarray_strategy(children),
            st.builds(
                Contiguous, st.integers(min_value=0, max_value=4), children
            ),
            st.builds(
                Vector,
                st.integers(min_value=1, max_value=4),   # count
                st.integers(min_value=1, max_value=3),   # blocklength
                st.integers(min_value=3, max_value=6),   # stride (>= blocklen)
                children,
            ),
            st.builds(
                Hvector,
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=1, max_value=2),
                st.integers(min_value=64, max_value=128),
                children,
            ),
            children.flatmap(
                lambda old: st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=3),
                        st.integers(min_value=0, max_value=8),
                    ),
                    min_size=1,
                    max_size=3,
                ).map(
                    lambda items: Indexed(
                        [b for b, _ in items],
                        # Spread entries far apart to avoid overlaps.
                        [d + 16 * i for i, (_, d) in enumerate(items)],
                        old,
                    )
                )
            ),
        )

    return st.recursive(base, extend, max_leaves=4)


def _base_and_mem(ft, count, seed):
    """Anchor + memory sized so every instance fits with margin."""
    lo, hi = get_plan(ft, count).bounds
    base = 64 - min(0, lo)
    return base, make_mem(size=base + max(0, hi) + 128, seed=seed)


@settings(max_examples=120, deadline=None)
@given(dtype=datatype_strategy(), count=st.integers(min_value=0, max_value=3))
def test_property_pack_matches_reference(dtype, count):
    dtype.commit()
    ft = dtype.flattened
    base, mem = _base_and_mem(ft, count, seed=7)
    fast = pack(mem, base, ft, count)
    slow = reference_pack(mem, base, ft, count)
    assert np.array_equal(fast, slow)


@settings(max_examples=120, deadline=None)
@given(
    dtype=datatype_strategy(),
    count=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_property_pack_range_is_slice(dtype, count, data):
    dtype.commit()
    ft = dtype.flattened
    base, mem = _base_and_mem(ft, count, seed=8)
    full = reference_pack(mem, base, ft, count)
    total = ft.size * count
    start = data.draw(st.integers(min_value=0, max_value=total))
    n = data.draw(st.integers(min_value=0, max_value=total - start))
    assert np.array_equal(
        get_plan(ft, count).execute_pack(mem, base, start, n),
        full[start : start + n],
    )


@settings(max_examples=80, deadline=None)
@given(dtype=datatype_strategy())
def test_property_flatten_invariants(dtype):
    """Flattening conserves size; leaves never report negative geometry."""
    dtype.commit()
    ft = dtype.flattened
    assert sum(l.size * l.block_count for l in ft.leaves) == dtype.size == ft.size
    for leaf in ft.leaves:
        assert leaf.size >= 0
        for level in leaf.levels:
            assert level.count >= 2  # count-1 levels must have been dropped


class TestAsAccessRunRegressions:
    """Layouts that must NOT collapse to a uniform strided run.

    Each case would produce wrong remote accesses if ``as_access_run``
    returned a run for it; they pin the guards in the collapse logic.
    """

    def test_shrunk_resized_overlapping_instances(self):
        # extent (4) < size (8): instance k+1 starts inside instance k.
        dtype = Resized(DOUBLE, lb=0, extent=4).commit()
        assert as_access_run(dtype.flattened, 2) is None

    def test_shrunk_resized_vector(self):
        # Natural span is 56 bytes but the resized extent is only 16, so
        # counted instances interleave their blocks.
        dtype = Resized(Vector(4, 1, 2, DOUBLE), lb=0, extent=16).commit()
        ft = dtype.flattened
        lo, hi = get_plan(ft, 1).bounds
        assert ft.extent < hi - lo
        assert as_access_run(ft, 2) is None

    def test_blocks_times_stride_not_extent(self):
        # No trailing gap: extent = 56 != 4 * 16, so count > 1 does not
        # tile as one longer vector.
        ft = Vector(4, 1, 2, DOUBLE).commit().flattened
        assert ft.extent != 4 * 16
        assert as_access_run(ft, 3) is None
        assert as_access_run(ft, 1) is not None  # single instance is fine

    def test_stride_smaller_than_block(self):
        # Hvector with byte stride 4 < block size 8: blocks overlap.
        ft = Hvector(3, 1, 4, DOUBLE).commit().flattened
        assert as_access_run(ft, 1) is None
