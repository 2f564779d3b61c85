"""Helpers for describing strided data layouts in simulated memory.

These utilities generate the (offset, length) block lists used all over the
benchmarks: strided vectors for the *noncontig* benchmark and random block
patterns for the property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def total_bytes(blocks: list[Block]) -> int:
    """Sum of block lengths."""
    return sum(b.length for b in blocks)
