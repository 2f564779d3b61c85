"""Helpers for describing strided data layouts in simulated memory.

These utilities generate the (offset, length) block lists used all over the
benchmarks: strided vectors for the *noncontig* benchmark, double-strided
halo regions for the ocean-model example, and random block patterns for the
property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class Block:
    """One contiguous run of bytes at ``offset`` of length ``length``."""

    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


def strided_view(mem: np.ndarray, start: int, count: int, size: int,
                 stride: int) -> np.ndarray:
    """``count`` rows of ``size`` bytes, ``stride`` bytes apart from
    ``start``, as a 2-D view of the flat byte array ``mem`` (read-only if
    ``mem`` is); :class:`ValueError` unless every row lies inside ``mem``.

    One row, or rows back to back, is a reshaped plain slice; the rest goes
    through the ``ndarray`` constructor, which — unlike ``as_strided`` —
    checks the view's extent against the buffer.
    """
    end = start + count * size
    if (count == 1 or stride == size) and 0 <= start <= end <= mem.nbytes:
        return mem[start:end].reshape(count, size)
    try:
        return np.ndarray((count, size), np.uint8, mem, start, (stride, 1))
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{count} rows of {size} B, {stride} B apart at {start} "
            f"do not fit {mem.nbytes} B of memory"
        ) from exc


def strided_blocks(count: int, blocklen: int, stride: int, base: int = 0) -> list[Block]:
    """Blocks of a single-strided vector: ``count`` runs of ``blocklen`` bytes,
    ``stride`` bytes apart (stride measured start-to-start, like MPI hvector)."""
    if count < 0 or blocklen < 0:
        raise ValueError("count and blocklen must be non-negative")
    return [Block(base + i * stride, blocklen) for i in range(count)]


def double_strided_blocks(
    outer_count: int,
    outer_stride: int,
    inner_count: int,
    inner_stride: int,
    blocklen: int,
    base: int = 0,
) -> list[Block]:
    """Blocks of a double-strided pattern (e.g. a 2-D face of a 3-D array)."""
    blocks: list[Block] = []
    for outer in range(outer_count):
        outer_base = base + outer * outer_stride
        blocks.extend(strided_blocks(inner_count, blocklen, inner_stride, outer_base))
    return blocks


def merge_adjacent(blocks: list[Block]) -> list[Block]:
    """Coalesce blocks that touch (sorted by offset).  Overlaps are rejected
    because MPI datatypes used as receive types must not overlap."""
    if not blocks:
        return []
    ordered = sorted(blocks, key=lambda b: b.offset)
    merged = [ordered[0]]
    for block in ordered[1:]:
        last = merged[-1]
        if block.offset < last.end:
            raise ValueError(f"overlapping blocks: {last} and {block}")
        if block.offset == last.end:
            merged[-1] = Block(last.offset, last.length + block.length)
        else:
            merged.append(block)
    return merged


def total_bytes(blocks: list[Block]) -> int:
    """Sum of block lengths."""
    return sum(b.length for b in blocks)


def iter_span(blocks: list[Block]) -> Iterator[int]:
    """Iterate every byte offset covered by ``blocks`` (testing helper)."""
    for block in blocks:
        yield from range(block.offset, block.end)
