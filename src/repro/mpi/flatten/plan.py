"""Packing plans: precomputed, coalesced offset tables for pack/unpack.

The ff-stacks of :mod:`stack` are deliberately compact — O(leaves x depth)
— but the transfer engine in :mod:`engine` re-derives every leaf's
block-offset table on *every* ``pack``/``pack_range``/``unpack_range``
call.  For the hot paths (the rendezvous chunk loop, repeated sends of
the same datatype) that repeated derivation is exactly the datatype-path
overhead the paper's ``direct_pack_ff`` sets out to eliminate.

A :class:`PackPlan` materializes, once per ``(FlattenedType, count)``,
the fully resolved run table of the whole packed stream:

* every basic block of every leaf of every instance, in packed order,
  with adjacent runs **coalesced across leaf and instance boundaries**
  whenever block ``k`` ends exactly where block ``k+1`` starts (the
  commit-time merge of :mod:`build` only fuses leaves with *identical*
  stacks; the plan catches the rest, e.g. a vector leaf whose last block
  abuts the next instance's first block);
* a prefix-sum table mapping packed-stream byte offsets to runs;
* the same table run-length-encoded into *segments* — stretches of
  equal-length runs a constant stride apart — with their own prefix sum,
  so ``execute_pack``/``execute_unpack``/``groups_in_range`` resume at
  arbitrary byte offsets with one ``searchsorted`` over the segments and
  copy a segment as one strided view, never expanding it into indices.

Coalescing is sound because runs are merged only when they are adjacent
in *both* the packed stream and memory — the byte order of the stream is
unchanged, only the grouping is coarser (fewer, larger copies).

Plans are memoized in a bounded LRU :class:`PlanCache` with hit/miss
counters (surfaced through :meth:`repro.obs.Tracer.summary`).  The cache can
be disabled globally — :func:`plan_cache_disabled` — which is the
ablation toggle ``benchmarks/test_ablations.py`` uses to measure how many
offset-table constructions the cache saves.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from ...memlib import strided_view
from .engine import PackError, _gather, _scatter
from .stack import FlattenedType

__all__ = [
    "PackPlan",
    "PlanCache",
    "get_plan",
    "plan_cache_disabled",
    "plan_cache_stats",
    "reset_plan_cache",
    "set_plan_cache_enabled",
]

#: Total PackPlan constructions (offset-table materializations) since the
#: last :func:`reset_plan_cache` — the ablation counter.
_BUILDS = 0


def _materialize_runs(ft: FlattenedType, count: int) -> tuple[np.ndarray, np.ndarray]:
    """All (offset, length) runs of ``count`` instances, coalesced.

    Offsets are relative to the instance-0 base address, in packed order.
    """
    empty = np.empty(0, dtype=np.int64)
    if ft.size == 0 or count == 0 or not ft.leaves:
        return empty, empty

    # Contiguous fast path: one gap-free run, no per-block materialization.
    if (
        len(ft.leaves) == 1
        and not ft.leaves[0].levels
        and ft.leaves[0].size == ft.size == ft.extent
    ):
        return (
            np.array([ft.leaves[0].offset], dtype=np.int64),
            np.array([ft.size * count], dtype=np.int64),
        )

    inst_offs = np.concatenate([leaf.block_offsets() for leaf in ft.leaves])
    inst_lens = np.concatenate(
        [np.full(leaf.block_count, leaf.size, dtype=np.int64) for leaf in ft.leaves]
    )
    inst_starts = np.arange(count, dtype=np.int64) * ft.extent
    offs = (inst_starts[:, None] + inst_offs[None, :]).reshape(-1)
    lens = np.tile(inst_lens, count)

    # Coalesce runs adjacent in both the packed stream and memory.
    keep = np.empty(len(offs), dtype=bool)
    keep[0] = True
    np.not_equal(offs[1:], offs[:-1] + lens[:-1], out=keep[1:])
    starts = np.flatnonzero(keep)
    return offs[starts], np.add.reduceat(lens, starts)


#: A constant-stride stretch shorter than this many bytes is not worth a
#: copy of its own when its neighbours are equally short: a strided copy
#: costs about 1 us of fixed host work plus the bytes, one index gather
#: over all of them about 1.8 ns per byte (64-byte blocks, numpy 2.x), so
#: the two cross between 0.5 and 1 KiB.
_MIN_STRIDED_BYTES = 1024


def _segment_runs(
    offs: np.ndarray, lens: np.ndarray, run_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run-length-encode the run table into strided segments.

    Returns ``(segments, seg_starts)``: one ``(first_run, first_offset,
    run_length, stride, n_runs)`` row per segment and the packed-stream
    prefix sum over segments (``n_segments + 1`` entries).

    A run joins the segment before it while it has the same length and
    keeps that segment's constant *positive* stride (the second run of a
    segment sets the stride).  Neighbouring stretches of one run length
    that each stay below ``_MIN_STRIDED_BYTES`` — equal-length runs at
    irregular displacements, short inner rows of nested vectors — are
    then folded into one *irregular* segment, marked ``stride == 0``,
    whose offsets stay in the run table.
    """
    n = len(offs)
    if n < 2:
        segments = np.empty((n, 5), dtype=np.int64)
        if n:
            segments[0] = (0, offs[0], lens[0], 0, 1)
        return segments, run_starts

    # Gap i separates run i from run i + 1.  A hard gap always ends a
    # stretch; a soft one (stride differs from the gap before) ends it
    # only if the gap before did not, because the run after a break is a
    # fresh start whose stride is still free:
    #     breaks[i] = hard[i] | (soft[i] & ~breaks[i-1]).
    # Inside a stretch of soft gaps the value alternates, so it follows
    # from the last non-soft gap (the anchor) and the distance to it.
    step = offs[1:] - offs[:-1]
    breaks = hard = (lens[1:] != lens[:-1]) | (step <= 0)
    soft = np.zeros(n - 1, dtype=bool)
    np.not_equal(step[1:], step[:-1], out=soft[1:])
    soft &= ~hard
    if soft.any():
        gap = np.arange(n - 1)
        anchor = np.maximum.accumulate(np.where(soft, -1, gap))
        odd = (gap - anchor) & 1 == 1
        breaks = np.where(soft, hard[anchor] ^ odd, hard)

    first = np.concatenate(([0], np.flatnonzero(breaks) + 1))
    n_runs = np.append(first[1:], n) - first
    length = lens[first]
    stride = step[np.minimum(first, n - 2)]
    stride[n_runs == 1] = 0

    # Fold neighbouring short stretches of equal run length.
    short = n_runs * length < _MIN_STRIDED_BYTES
    fold = short[1:] & short[:-1] & (length[1:] == length[:-1])
    if fold.any():
        heads = np.flatnonzero(np.concatenate(([True], ~fold)))
        stride = stride[heads]
        stride[np.append(heads[1:], len(first)) - heads > 1] = 0
        n_runs = np.add.reduceat(n_runs, heads)
        first, length = first[heads], length[heads]
    segments = np.stack((first, offs[first], length, stride, n_runs), axis=1)
    return segments, run_starts[np.append(first, n)]


def _strided_view(
    mem: np.ndarray, start: int, n_runs: int, length: int, stride: int
) -> np.ndarray:
    """``n_runs`` rows of ``length`` bytes, ``stride`` apart, as a
    bounds-checked 2-D view of ``mem``."""
    try:
        return strided_view(mem, start, n_runs, length, stride)
    except ValueError as exc:
        raise PackError(str(exc)) from exc


class PackPlan:
    """The resolved run table of ``count`` instances of one datatype.

    ``run_offsets``/``run_lengths`` hold the coalesced runs in packed
    order (offsets relative to the base address the plan is executed at);
    ``run_starts`` is the packed-stream prefix-sum table (length
    ``n_runs + 1``, ending at :attr:`total`).  ``segments``/``seg_starts``
    are the same table run-length-encoded (see :func:`_segment_runs`) —
    what range lookups and copies walk.  ``bounds`` is the base-relative
    ``(low, high)`` byte range all runs together touch.
    """

    __slots__ = (
        "ft", "count", "total", "run_offsets", "run_lengths", "run_starts",
        "segments", "seg_starts", "bounds",
    )

    def __init__(self, ft: FlattenedType, count: int):
        if count < 0:
            raise PackError(f"negative count: {count}")
        global _BUILDS
        _BUILDS += 1
        self.ft = ft
        self.count = count
        self.total = ft.size * count
        self.run_offsets, self.run_lengths = _materialize_runs(ft, count)
        self.run_starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(self.run_lengths))
        )
        self.segments, self.seg_starts = _segment_runs(
            self.run_offsets, self.run_lengths, self.run_starts
        )
        self.bounds = (0, 0)
        if self.n_runs:
            ends = self.run_offsets + self.run_lengths
            self.bounds = (int(self.run_offsets.min()), int(ends.max()))

    @property
    def n_runs(self) -> int:
        return len(self.run_offsets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PackPlan count={self.count} total={self.total} "
            f"runs={self.n_runs} segments={len(self.segments)}>"
        )

    # -- range walking ---------------------------------------------------------------

    def _check_range(self, byte_offset: int, nbytes: int) -> None:
        if not 0 <= byte_offset <= self.total:
            raise PackError(f"byte offset {byte_offset} outside [0, {self.total}]")
        if nbytes < 0 or byte_offset + nbytes > self.total:
            raise PackError(
                f"range [{byte_offset}, {byte_offset + nbytes}) outside packed "
                f"size {self.total}"
            )

    def _offset_at(self, first: int, offset: int, stride: int, run: int) -> int:
        """Offset of run ``run`` of the segment starting at ``offset``."""
        if stride or not run:
            return offset + run * stride
        return int(self.run_offsets[first + run])

    def run_groups(
        self, byte_offset: int, nbytes: int
    ) -> Iterator[tuple[int, int, int, int, int]]:
        """``(first_run, offset, length, stride, n_runs)`` groups covering
        a packed range, in stream order.

        The plan-backed equivalent of :func:`engine.block_runs`: per
        touched segment its whole runs as one group, around them an
        optional split head and split tail run (``n_runs == 1``,
        ``length`` the bytes taken).  ``offset`` is base-relative;
        ``stride == 0`` with ``n_runs > 1`` marks an irregular group,
        whose offsets are ``run_offsets[first_run : first_run + n_runs]``.
        """
        self._check_range(byte_offset, nbytes)
        if nbytes == 0:
            return
        # Segments lo..hi-1 overlap the range: lo holds byte_offset, hi
        # counts the segments that start at or before its last byte.
        lo, hi = self.seg_starts.searchsorted(
            (byte_offset, byte_offset + nbytes - 1), side="right"
        )
        lo -= 1
        skip = byte_offset - int(self.seg_starts[lo])
        left = nbytes
        for first, offset, length, stride, n_runs in self.segments[lo:hi].tolist():
            if not skip and left >= n_runs * length:
                # Wholly covered: every segment but the first and last.
                yield (first, offset, length, stride, n_runs)
                left -= n_runs * length
                continue
            # Resume ``skip`` bytes into the first segment.
            run, into = divmod(skip, length)
            skip = 0
            if into:
                take = min(length - into, left)
                at = self._offset_at(first, offset, stride, run) + into
                yield (first + run, at, take, 0, 1)
                left -= take
                run += 1
            whole = min(n_runs - run, left // length)
            if whole:
                at = self._offset_at(first, offset, stride, run)
                yield (first + run, at, length, stride, whole)
                left -= whole * length
                run += whole
            if left and run < n_runs:
                # Split tail run (starts exactly at a run boundary).
                at = self._offset_at(first, offset, stride, run)
                yield (first + run, at, left, 0, 1)
                return

    def groups_in_range(
        self, byte_offset: int, nbytes: Optional[int] = None
    ) -> list[tuple[int, int]]:
        """``(block_len, n_blocks)`` groups for a packed range — the
        cost-model view of the plan (no memory touched)."""
        if nbytes is None:
            nbytes = self.total - byte_offset
        groups: list[tuple[int, int]] = []
        for _, _, length, _, n_runs in self.run_groups(byte_offset, nbytes):
            if groups and groups[-1][0] == length:
                groups[-1] = (length, groups[-1][1] + n_runs)
            else:
                groups.append((length, n_runs))
        return groups

    # -- execution -------------------------------------------------------------------

    def execute_pack(
        self,
        mem: np.ndarray,
        base: int,
        byte_offset: int = 0,
        nbytes: Optional[int] = None,
    ) -> np.ndarray:
        """Pack packed-stream bytes [byte_offset, byte_offset + nbytes)."""
        if nbytes is None:
            nbytes = self.total - byte_offset
        out = np.empty(nbytes, dtype=np.uint8)
        pos = 0
        for first, offset, length, stride, n_runs in self.run_groups(
            byte_offset, nbytes
        ):
            span = n_runs * length
            start = base + offset
            if n_runs == 1:
                out[pos : pos + span] = mem[start : start + span]
            elif stride:
                out[pos : pos + span].reshape(n_runs, length)[...] = _strided_view(
                    mem, start, n_runs, length, stride
                )
            else:
                offsets = self.run_offsets[first : first + n_runs] + base
                out[pos : pos + span] = _gather(mem, offsets, length).reshape(-1)
            pos += span
        if pos != nbytes:  # pragma: no cover - invariant
            raise AssertionError(f"packed {pos} of {nbytes} bytes")
        return out

    def execute_unpack(
        self,
        mem: np.ndarray,
        base: int,
        byte_offset: int,
        data: np.ndarray,
    ) -> None:
        """Scatter ``data`` into packed-stream positions from byte_offset."""
        if data.dtype != np.uint8:
            data = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        pos = 0
        for first, offset, length, stride, n_runs in self.run_groups(
            byte_offset, data.nbytes
        ):
            span = n_runs * length
            start = base + offset
            if n_runs == 1:
                mem[start : start + span] = data[pos : pos + span]
            elif stride >= length:
                _strided_view(mem, start, n_runs, length, stride)[...] = data[
                    pos : pos + span
                ].reshape(n_runs, length)
            else:
                # Irregular offsets, or rows that overlap (stride <
                # length): the index scatter writes in stream order, so
                # the later run wins as in engine.unpack_range.
                offsets = self.run_offsets[first : first + n_runs] + base
                _scatter(mem, offsets, length, data[pos : pos + span])
            pos += span
        if pos != data.nbytes:  # pragma: no cover - invariant
            raise AssertionError(f"unpacked {pos} of {data.nbytes} bytes")


class PlanCache:
    """Bounded LRU cache of :class:`PackPlan` keyed by ``(ft, count)``."""

    def __init__(self, maxsize: int = 64):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._plans: "OrderedDict[tuple[FlattenedType, int], PackPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, ft: FlattenedType, count: int) -> PackPlan:
        key = (ft, count)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self.hits += 1
            return plan
        self.misses += 1
        plan = PackPlan(ft, count)
        self._plans[key] = plan
        while len(self._plans) > self.maxsize:
            self._plans.popitem(last=False)
            self.evictions += 1
        return plan

    def clear(self) -> None:
        self._plans.clear()
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._plans),
            "maxsize": self.maxsize,
        }


#: The process-wide default cache used by all pack/unpack call sites.
_default_cache = PlanCache()
_enabled = True


def get_plan(
    ft: FlattenedType, count: int, cache: Optional[PlanCache] = None
) -> PackPlan:
    """The memoized plan for ``(ft, count)``; builds fresh when disabled."""
    if cache is None:
        cache = _default_cache
    if not _enabled:
        return PackPlan(ft, count)
    return cache.get(ft, count)


def set_plan_cache_enabled(enabled: bool) -> bool:
    """Toggle the process-wide plan cache; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


@contextmanager
def plan_cache_disabled():
    """Context manager: run with plans rebuilt on every call (ablation)."""
    previous = set_plan_cache_enabled(False)
    try:
        yield
    finally:
        set_plan_cache_enabled(previous)


def plan_cache_stats() -> dict[str, int]:
    """Counters of the default plan cache plus the global build count.

    ``builds`` counts every PackPlan construction (offset-table
    materialization) since the last reset, including cache-disabled ones —
    the quantity the plan-cache ablation compares.
    """
    stats = _default_cache.stats()
    stats["builds"] = _BUILDS
    stats["enabled"] = int(_enabled)
    return stats


def reset_plan_cache() -> None:
    """Clear the default cache and zero all counters (test isolation)."""
    global _BUILDS
    _default_cache.clear()
    _BUILDS = 0
