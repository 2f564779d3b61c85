"""Packing plans: the one executor of the packed byte stream.

The ff-stacks of :mod:`stack` are deliberately compact — O(leaves x
depth) — and re-deriving block offsets from them on every chunk of every
send of the same datatype is exactly the datatype-path overhead the
paper's ``direct_pack_ff`` sets out to eliminate.  Every pack and unpack
in the library — pt2pt chunks, one-sided targets,
``Datatype.pack_from``/``unpack_into`` — therefore runs from a plan.

A :class:`PackPlan` materializes, once per ``(FlattenedType, count)``,
the fully resolved run table of the whole packed stream:

* every basic block of every leaf of every instance, in packed order,
  with adjacent runs **coalesced across leaf and instance boundaries**
  whenever block ``k`` ends exactly where block ``k+1`` starts (the
  commit-time merge of :mod:`build` only fuses leaves with *identical*
  stacks; the plan catches the rest, e.g. a vector leaf whose last block
  abuts the next instance's first block);
* a prefix-sum table mapping packed-stream byte offsets to runs, so
  ``execute_pack``/``execute_unpack``/``groups_in_range`` resume at
  arbitrary byte offsets with one ``searchsorted``;
* the same table run-length-encoded into *segments* — stretches of
  equal-length runs a constant stride apart, each copied as one strided
  view, and short stretches of any shape folded into one irregular
  segment, copied by one index gather over its slice of the run table.

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

from bisect import bisect_right
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from ...memlib import strided_view
from .stack import FlattenedType

__all__ = [
    "PackError",
    "PackPlan",
    "PlanCache",
    "get_plan",
    "plan_cache_disabled",
    "plan_cache_stats",
    "reset_plan_cache",
]

#: Total PackPlan constructions (offset-table materializations) since the
#: last :func:`reset_plan_cache` — the ablation counter.
_BUILDS = 0


class PackError(ValueError):
    """Invalid pack/unpack request (bounds, size mismatch)."""


def _slice(mem: np.ndarray, start: int, nbytes: int) -> np.ndarray:
    """``mem[start : start + nbytes]``, bounds-checked like the other kernels."""
    if start < 0 or start + nbytes > len(mem):
        raise PackError(
            f"bytes [{start}, {start + nbytes}) outside a {len(mem)} B buffer"
        )
    return mem[start : start + nbytes]


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

    leaves = ft.leaves
    inst_lens = np.fromiter((leaf.size for leaf in leaves), np.int64, len(leaves))
    if any(leaf.levels for leaf in leaves):
        inst_offs = np.concatenate([leaf.block_offsets() for leaf in leaves])
        inst_lens = np.repeat(inst_lens, [leaf.block_count for leaf in leaves])
    else:
        # Level-less leaves (the entries of an Indexed or Struct): one
        # block each.
        inst_offs = np.fromiter(
            (leaf.offset for leaf in leaves), np.int64, len(leaves)
        )
    inst_starts = np.arange(count, dtype=np.int64) * ft.extent
    offs = (inst_starts[:, None] + inst_offs[None, :]).reshape(-1)
    return _coalesce(offs, np.tile(inst_lens, count))


def _coalesce(offs: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge runs adjacent in both the packed stream and memory."""
    if not len(offs):
        return offs, lens
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


def _segment_runs(offs: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Run-length-encode the run table into strided segments: one
    ``(first_run, first_offset, run_length, stride, n_runs)`` row each.

    A run joins the segment before it while it has the same length and
    keeps that segment's constant *positive* stride (the second run of a
    segment sets the stride).  Neighbouring stretches that each stay
    below ``_MIN_STRIDED_BYTES`` — blocks at irregular displacements,
    fields of differing sizes, short inner rows of nested vectors — are
    then folded, whatever their run lengths, into one *irregular*
    segment, marked ``stride == 0``, whose offsets and lengths stay in
    the run table (its ``run_length`` is its first run's).
    """
    n = len(offs)
    if n < 2:
        segments = np.empty((n, 5), dtype=np.int64)
        if n:
            segments[0] = (0, offs[0], lens[0], 0, 1)
        return segments

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

    # Fold neighbouring short stretches.
    short = n_runs * length < _MIN_STRIDED_BYTES
    fold = short[1:] & short[:-1]
    if fold.any():
        heads = np.flatnonzero(np.concatenate(([True], ~fold)))
        stride = stride[heads]
        stride[np.append(heads[1:], len(first)) - heads > 1] = 0
        n_runs = np.add.reduceat(n_runs, heads)
        first, length = first[heads], length[heads]
    return np.stack((first, offs[first], length, stride, n_runs), axis=1)


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
    """The resolved run table of ``count`` instances of one datatype, or
    of explicit ``runs`` (``(offsets, lengths)`` in stream order, no
    ``ft``).

    ``run_offsets``/``run_lengths`` hold the coalesced runs in packed
    order (offsets relative to the base address the plan is executed at);
    ``run_starts`` is the packed-stream prefix-sum table (length
    ``n_runs + 1``, ending at :attr:`total`).  ``segments`` is the same
    table run-length-encoded (see :func:`_segment_runs`) — what copies
    walk.  ``bounds`` is the base-relative ``(low, high)`` byte range all
    runs together touch.
    """

    __slots__ = (
        "ft", "count", "total", "run_offsets", "run_lengths", "run_starts",
        "segments", "_seg_first", "bounds",
    )

    def __init__(self, ft: Optional[FlattenedType], count: int,
                 runs: Optional[tuple[np.ndarray, np.ndarray]] = None):
        if count < 0:
            raise PackError(f"negative count: {count}")
        global _BUILDS
        _BUILDS += 1
        self.ft = ft
        self.count = count
        self.run_offsets, self.run_lengths = (
            _materialize_runs(ft, count) if runs is None else _coalesce(*runs))
        self.run_starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(self.run_lengths))
        )
        self.total = int(self.run_starts[-1])
        self.segments = _segment_runs(self.run_offsets, self.run_lengths)
        #: First run of every segment, for the run -> segment lookup.
        self._seg_first = self.segments[:, 0].tolist()
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

    def run_groups(
        self, byte_offset: int, nbytes: int
    ) -> Iterator[tuple[int, int, int, int, int]]:
        """``(first_run, offset, length, stride, n_runs)`` groups covering
        a packed range, in stream order; ``offset`` is the base-relative
        address of the group's first byte.  A group is one of:

        * one run, or the part of one run in range (``n_runs == 1``):
          ``length`` bytes;
        * ``n_runs`` whole runs of ``length`` bytes, ``stride`` apart
          (``stride != 0``);
        * an irregular group (``stride == 0``, ``n_runs > 1``): ``length``
          packed bytes of runs ``first_run`` onwards, the end ones
          clipped to the range; the run table holds their offsets and
          lengths.

        Per touched segment: its whole runs as one group, around them an
        optional split head and tail run; an irregular segment is one
        group, split runs included.
        """
        self._check_range(byte_offset, nbytes)
        if nbytes == 0:
            return
        stop = byte_offset + nbytes
        # The runs holding the range's first and last byte, and the
        # segments holding those runs.
        lo_run, hi_run = self.run_starts.searchsorted(
            (byte_offset, stop - 1), side="right"
        ).tolist()
        lo_run -= 1
        hi_run -= 1
        lo = bisect_right(self._seg_first, lo_run) - 1
        hi = bisect_right(self._seg_first, hi_run, lo)
        pos = byte_offset
        skip = byte_offset - int(self.run_starts[lo_run])  # into lo_run
        for first, offset, length, stride, n_runs in self.segments[lo:hi].tolist():
            run = max(lo_run - first, 0)
            if not stride and n_runs > 1:
                last = min(hi_run - first, n_runs - 1)
                end = stop
                if hi_run >= first + n_runs:
                    end = int(self.run_starts[first + n_runs])
                at = int(self.run_offsets[first + run]) + skip
                yield (first + run, at, end - pos, 0, last - run + 1)
                pos, skip = end, 0
                continue
            left = stop - pos
            if skip:
                take = min(length - skip, left)
                yield (first + run, offset + run * stride + skip, take, 0, 1)
                left -= take
                run += 1
                skip = 0
            whole = min(n_runs - run, left // length)
            if whole:
                yield (first + run, offset + run * stride, length, stride, whole)
                left -= whole * length
                run += whole
            if left and run < n_runs:
                # Split tail run (starts exactly at a run boundary).
                yield (first + run, offset + run * stride, left, 0, 1)
                return
            pos = stop - left

    def _byte_index(
        self, mem: np.ndarray, base: int, first: int, n_runs: int, start: int,
        nbytes: int,
    ) -> np.ndarray:
        """Index into ``mem`` of packed-stream bytes [start, start + nbytes)
        at ``base``: runs ``first .. first + n_runs - 1``, the end ones
        clipped."""
        starts = self.run_starts[first : first + n_runs + 1]
        edges = np.clip(starts, start, start + nbytes)
        shift = self.run_offsets[first : first + n_runs] - starts[:-1] + base
        low, high = int((shift + edges[:-1]).min()), int((shift + edges[1:]).max())
        if low < 0 or high > len(mem):
            raise PackError(f"bytes [{low}, {high}) outside a {len(mem)} B buffer")
        index = np.repeat(shift, np.diff(edges))
        index += np.arange(start, start + nbytes, dtype=np.int64)
        return index

    def groups_in_range(
        self, byte_offset: int, nbytes: Optional[int] = None
    ) -> list[tuple[int, int]]:
        """``(block_len, n_blocks)`` groups for a packed range — the
        cost-model view of the plan (no memory touched).  Neighbouring
        groups of one length merge, so the list is what a run-by-run walk
        of the run table gives."""
        if nbytes is None:
            nbytes = self.total - byte_offset
        groups: list[tuple[int, int]] = []
        pos = byte_offset
        for first, _, length, stride, n_runs in self.run_groups(byte_offset, nbytes):
            span = n_runs * length if stride else length
            if stride or n_runs == 1:
                pairs = [(length, n_runs)]
            else:
                # Run-length-encode the irregular group's clipped runs.
                starts = self.run_starts[first : first + n_runs + 1]
                lengths = np.diff(np.clip(starts, pos, pos + span))
                heads = np.flatnonzero(np.diff(lengths, prepend=-1))
                pairs = list(zip(
                    lengths[heads].tolist(), np.diff(heads, append=n_runs).tolist()
                ))
            pos += span
            if groups and groups[-1][0] == pairs[0][0]:
                groups[-1] = (pairs[0][0], groups[-1][1] + pairs[0][1])
                del pairs[0]
            groups.extend(pairs)
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
            span = n_runs * length if stride else length
            if n_runs == 1:
                out[pos : pos + span] = _slice(mem, base + offset, span)
            elif stride:
                out[pos : pos + span].reshape(n_runs, length)[...] = _strided_view(
                    mem, base + offset, n_runs, length, stride
                )
            else:
                index = self._byte_index(
                    mem, base, first, n_runs, byte_offset + pos, span
                )
                out[pos : pos + span] = mem[index]
            pos += span
        if pos != nbytes:  # pragma: no cover - invariant
            raise AssertionError(f"packed {pos} of {nbytes} bytes")
        return out

    def stream_view(
        self, mem: np.ndarray, base: int, byte_offset: int, nbytes: int
    ) -> np.ndarray:
        """Packed-stream bytes [byte_offset, byte_offset + nbytes), copied
        only where the layout needs it.

        A single-run plan *is* its packed stream, so the range comes back
        as a bounds-checked view of ``mem`` — valid only while the caller
        owns that buffer.  Any other plan returns :meth:`execute_pack`'s
        fresh array.
        """
        if self.n_runs != 1:
            return self.execute_pack(mem, base, byte_offset, nbytes)
        self._check_range(byte_offset, nbytes)
        return _slice(mem, base + int(self.run_offsets[0]) + byte_offset, nbytes)

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
            span = n_runs * length if stride else length
            if n_runs == 1:
                _slice(mem, base + offset, span)[...] = data[pos : pos + span]
            elif stride >= length:
                _strided_view(mem, base + offset, n_runs, length, stride)[...] = data[
                    pos : pos + span
                ].reshape(n_runs, length)
            else:
                # Irregular runs, or rows that overlap (0 < stride <
                # length): the index scatter writes in stream order, so
                # the later run wins.
                index = self._byte_index(
                    mem, base, first, n_runs, byte_offset + pos, span
                )
                mem[index] = data[pos : pos + span]
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


@contextmanager
def plan_cache_disabled():
    """Context manager: run with plans rebuilt on every call (ablation)."""
    global _enabled
    previous, _enabled = _enabled, False
    try:
        yield
    finally:
        _enabled = previous


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
