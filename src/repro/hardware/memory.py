"""Cache-aware local memory-copy cost model.

Local copies are the protagonist of the paper's Sec. 3: the generic
non-contiguous send spends its time in pack/unpack copies, and the
intra-node results of Fig. 7 (direct_pack_ff occasionally *beating* the
contiguous transfer) are pure cache effects.  This model captures the two
properties those results need:

* copy bandwidth depends on the size of the contiguous chunk being copied
  (small-to-medium chunks run out of L1/L2, large streaming chunks out of
  main memory);
* block-wise copies pay a fixed per-block overhead (loop + address
  arithmetic), which is what makes tiny blocks slow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import MemoryParams

__all__ = ["MemorySystem", "CopyCost"]


@dataclass(frozen=True)
class CopyCost:
    """Cost breakdown of a local copy operation."""

    duration: float
    bytes_copied: int
    blocks: int

    @property
    def bandwidth(self) -> float:
        """Achieved bandwidth in B/µs (0 for empty copies)."""
        return self.bytes_copied / self.duration if self.duration > 0 else 0.0


class MemorySystem:
    """Cost model for copies inside one node's memory."""

    def __init__(self, params: MemoryParams):
        self.params = params

    def copy_bandwidth(self, chunk_len: int) -> float:
        """Streaming copy bandwidth for contiguous chunks of ``chunk_len``.

        The thresholds follow the cache hierarchy: a copy whose working set
        (source + destination chunk) fits L1 streams fastest, one fitting
        L2 streams at L2 speed, anything larger at main-memory speed.
        """
        if chunk_len <= 0:
            raise ValueError(f"non-positive chunk length: {chunk_len}")
        p = self.params
        caches = p.caches
        if 2 * chunk_len <= caches.l1_size:
            return p.l1_copy_bw
        if 2 * chunk_len <= caches.l2_size:
            return p.l2_copy_bw
        return p.main_copy_bw

    def src_cached(self, nbytes: int) -> bool:
        """Is a source of ``nbytes`` still in L2 while it is fed to the
        wire: does it fit there next to its destination?"""
        return 2 * nbytes <= self.params.caches.l2_size

    def copy_cost(self, nbytes: int, chunk_len: int | None = None) -> CopyCost:
        """Cost of one contiguous copy of ``nbytes``.

        ``chunk_len`` is the granularity the copy loop works at (protocol
        chunk size); it defaults to the whole copy.
        """
        if nbytes < 0:
            raise ValueError(f"negative copy size: {nbytes}")
        if nbytes == 0:
            return CopyCost(0.0, 0, 0)
        chunk = chunk_len if chunk_len is not None else nbytes
        bw = self.copy_bandwidth(chunk)
        duration = self.params.copy_call_overhead + nbytes / bw
        return CopyCost(duration, nbytes, 1)

    def blocks_copy_cost(self, block_lengths: list[int]) -> CopyCost:
        """Cost of copying blocks of mixed lengths (general datatype leaves)."""
        total = 0
        duration = self.params.copy_call_overhead
        count = 0
        for length in block_lengths:
            if length < 0:
                raise ValueError(f"negative block length: {length}")
            if length == 0:
                continue
            duration += self.params.per_block_overhead
            duration += length / self.copy_bandwidth(length)
            total += length
            count += 1
        if count == 0:
            return CopyCost(0.0, 0, 0)
        return CopyCost(duration, total, count)
