"""The flattened datatype representation (the ff-stacks of Sec. 3.3.1).

A committed datatype is represented as a *list of leaves*; each leaf is a
uniformly sized basic block plus a stack of ``(count, extent)`` levels
describing its repeat pattern — "the path from the root to a specific
leaf describes the repeat pattern of this basic datatype in the
user-buffer ... defined by two informations on each level of the datatype
tree: the replication count and the extent" (paper, Sec. 3.3).

Iteration order is **leaf-major** (Fig. 6: the transfer loop traverses the
list of leaves, copying each leaf's blocks completely before moving on),
with a leaf's blocks ordered by its levels, outermost level varying
slowest.  The packed byte stream of a count-``n`` send is instance-major:
instance 0's leaves, then instance 1's, etc.

The representation is deliberately compact — O(leaves x depth), never
O(blocks) — which is the property that lets ``find_position`` resume a
partial pack in O(N) + O(D) (paper, Sec. 3.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["Level", "LeafSpec", "FlattenedType", "Position"]


@dataclass(frozen=True)
class Level:
    """One repeat level: ``count`` repetitions ``extent`` bytes apart."""

    count: int
    extent: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"level count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class LeafSpec:
    """One leaf: a basic block and its repeat-pattern stack."""

    #: Offset of the first block relative to the instance base address.
    offset: int
    #: Contiguous bytes per basic block.
    size: int
    #: Repeat levels, outermost first (empty = a single block).
    levels: tuple[Level, ...] = ()

    #: hash((offset, size, levels)), computed once: leaves key the plan
    #: cache through their FlattenedType on every message.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative leaf size: {self.size}")
        object.__setattr__(
            self, "_hash", hash((self.offset, self.size, self.levels))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def block_count(self) -> int:
        n = 1
        for level in self.levels:
            n *= level.count
        return n

    @property
    def packed_size(self) -> int:
        """Bytes this leaf contributes to the packed stream, per instance."""
        return self.size * self.block_count

    @property
    def depth(self) -> int:
        return len(self.levels)

    # -- block address computation -------------------------------------------------

    def block_offsets(self) -> np.ndarray:
        """Offsets of every block of one instance, in iteration order."""
        offs = np.array([self.offset], dtype=np.int64)
        for level in self.levels:
            step = np.arange(level.count, dtype=np.int64) * level.extent
            offs = (offs[:, None] + step[None, :]).reshape(-1)
        return offs

    def block_offset_at(self, index: int) -> int:
        """Offset of block ``index`` (mixed-radix digit decomposition)."""
        if not 0 <= index < self.block_count:
            raise IndexError(f"block index {index} out of {self.block_count}")
        off = self.offset
        rem = index
        weight = self.block_count
        for level in self.levels:
            weight //= level.count
            digit, rem = divmod(rem, weight)
            off += digit * level.extent
        return off

    def block_offsets_range(self, start: int, stop: int) -> np.ndarray:
        """Offsets of blocks ``start..stop`` (vectorized mixed radix)."""
        if not 0 <= start <= stop <= self.block_count:
            raise IndexError(f"block range [{start}, {stop}) out of {self.block_count}")
        idx = np.arange(start, stop, dtype=np.int64)
        offs = np.full(idx.shape, self.offset, dtype=np.int64)
        weight = self.block_count
        rem = idx
        for level in self.levels:
            weight //= level.count
            digits = rem // weight
            rem = rem - digits * weight
            offs += digits * level.extent
        return offs

    def span(self) -> tuple[int, int]:
        """(min, max+size) byte bounds touched by this leaf's blocks."""
        lo = self.offset
        hi = self.offset
        for level in self.levels:
            delta = (level.count - 1) * level.extent
            if delta >= 0:
                hi += delta
            else:
                lo += delta
        return lo, hi + self.size


@dataclass(frozen=True)
class Position:
    """A resume position inside the packed stream (``find_position`` result)."""

    instance: int
    leaf_index: int
    block_index: int
    byte_in_block: int

    @property
    def at_block_start(self) -> bool:
        return self.byte_in_block == 0


@dataclass(frozen=True)
class FlattenedType:
    """The committed flat representation of one datatype."""

    leaves: tuple[LeafSpec, ...]
    #: Data bytes per instance (== datatype.size).
    size: int
    #: Instance stride (== datatype.extent).
    extent: int
    #: Lower bound (offset of the occupied span; may be negative).
    lb: int

    #: Packed-stream start offset of each leaf within one instance.
    leaf_starts: tuple[int, ...] = field(init=False)

    #: hash of the defining fields, computed once (``leaf_starts`` is
    #: derived from ``leaves``): the plan cache hashes its
    #: ``(FlattenedType, count)`` key on every message.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        starts = []
        acc = 0
        for leaf in self.leaves:
            starts.append(acc)
            acc += leaf.packed_size
        if acc != self.size:
            raise ValueError(
                f"leaves pack {acc} bytes but datatype size is {self.size}"
            )
        object.__setattr__(self, "leaf_starts", tuple(starts))
        object.__setattr__(
            self, "_hash", hash((self.leaves, self.size, self.extent, self.lb))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def block_count(self) -> int:
        """Basic blocks per instance."""
        return sum(leaf.block_count for leaf in self.leaves)

    @property
    def max_depth(self) -> int:
        return max((leaf.depth for leaf in self.leaves), default=0)

    @property
    def is_single_block(self) -> bool:
        return len(self.leaves) == 1 and not self.leaves[0].levels

    def uniform_block_size(self) -> int | None:
        """Common basic-block size, or None if leaves differ."""
        sizes = {leaf.size for leaf in self.leaves}
        return sizes.pop() if len(sizes) == 1 else None

    def block_length_groups(self, count: int = 1) -> list[tuple[int, int]]:
        """``(block_len, n_blocks)`` groups for ``count`` instances."""
        return [
            (leaf.size, leaf.block_count * count)
            for leaf in self.leaves
            if leaf.size and leaf.block_count
        ]

    def span(self) -> tuple[int, int]:
        """(min, max) byte bounds touched by one instance."""
        if not self.leaves:
            return (0, 0)
        lows, highs = zip(*(leaf.span() for leaf in self.leaves))
        return min(lows), max(highs)

    # -- find_position (paper Sec. 3.3.2) -------------------------------------------

    def find_position(self, byte_offset: int, count: int) -> Position:
        """Locate ``byte_offset`` of the packed stream of ``count`` instances.

        "The function find_position is used to resume after a part of a
        large message block was already sent" — O(N) over the leaf list
        plus O(D) for the block decomposition (done lazily by
        ``block_offset_at``).
        """
        total = self.size * count
        if not 0 <= byte_offset <= total:
            raise ValueError(f"byte offset {byte_offset} outside [0, {total}]")
        if byte_offset == total:
            return Position(count, 0, 0, 0)
        instance, within = divmod(byte_offset, self.size)
        for leaf_index, (leaf, start) in enumerate(zip(self.leaves, self.leaf_starts)):
            if within < start + leaf.packed_size:
                block, byte_in_block = divmod(within - start, leaf.size)
                return Position(instance, leaf_index, block, byte_in_block)
        raise AssertionError("unreachable: offset within instance not found")

    def __iter__(self) -> Iterator[LeafSpec]:
        return iter(self.leaves)
