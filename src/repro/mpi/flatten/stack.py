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
O(blocks).  :class:`~repro.mpi.flatten.plan.PackPlan` expands it once per
``(type, count)`` into the run table every transfer walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Level", "LeafSpec", "FlattenedType"]


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

    def block_offsets(self) -> np.ndarray:
        """Offsets of every block of one instance, in iteration order."""
        offs = np.array([self.offset], dtype=np.int64)
        for level in self.levels:
            step = np.arange(level.count, dtype=np.int64) * level.extent
            offs = (offs[:, None] + step[None, :]).reshape(-1)
        return offs


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

    #: hash of the defining fields, computed once: the plan cache hashes
    #: its ``(FlattenedType, count)`` key on every message.
    _hash: int = field(init=False, repr=False, compare=False)
    #: ``(block_len, n_blocks)`` per non-empty leaf of one instance.
    _groups: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        blocks = [(leaf.size, leaf.block_count) for leaf in self.leaves]
        packed = sum(size * n for size, n in blocks)
        if packed != self.size:
            raise ValueError(
                f"leaves pack {packed} bytes but datatype size is {self.size}"
            )
        object.__setattr__(
            self, "_hash", hash((self.leaves, self.size, self.extent, self.lb))
        )
        object.__setattr__(
            self, "_groups", tuple((size, n) for size, n in blocks if size and n)
        )

    def __hash__(self) -> int:
        return self._hash

    def block_length_groups(self, count: int = 1) -> list[tuple[int, int]]:
        """``(block_len, n_blocks)`` groups for ``count`` instances."""
        return [(size, n * count) for size, n in self._groups]
