"""Building the flattened representation at commit time (Sec. 3.3.1).

"These stacks are built up when committing the datatype, so it is not
exactly 'on the fly'.  But as the memory consumption of the stacks is very
low, it can be tolerated for an even faster packing operation."

For each constructor there is "a special way to place the information on
the stack":

* basic       -> one leaf, empty stack;
* contiguous  -> wrap every leaf in a ``(count, extent)`` level;
* (h)vector   -> two levels, ``(count, stride)`` outside ``(blocklen, extent)``;
* (h)indexed  -> one shifted copy of the oldtype leaves per index entry,
                 each wrapped in its ``(blocklen, extent)`` level;
* struct      -> like hindexed with a per-field oldtype;
* resized     -> leaves unchanged (only lb/extent move).

The *merge* step then (a) drops levels with replication count 1, (b)
absorbs levels whose copies tile contiguously into a bigger basic block,
and (c) fuses byte-adjacent leaves with identical stacks — "it often is
possible to build up larger blocks of adjacent basic blocks".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .stack import FlattenedType, LeafSpec, Level

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..datatypes.base import Datatype

__all__ = ["build_flattened", "leaves_of"]


def _wrap(leaves: list[LeafSpec], count: int, extent: int) -> list[LeafSpec]:
    """Replicate every leaf ``count`` times, ``extent`` bytes apart."""
    if count == 0:
        return []
    if count == 1:
        # Merge rule (a): a replication count of 1 carries no information.
        return list(leaves)
    out: list[LeafSpec] = []
    for leaf in leaves:
        # Merge rule (b): copies that tile gap-free extend the basic block.
        # This requires the leaf to be a plain block (no inner levels) whose
        # size equals the replication extent.
        if not leaf.levels and leaf.size == extent and len(leaves) == 1:
            out.append(LeafSpec(offset=leaf.offset, size=leaf.size * count))
        else:
            out.append(
                LeafSpec(
                    offset=leaf.offset,
                    size=leaf.size,
                    levels=(Level(count, extent),) + leaf.levels,
                )
            )
    return out


def _shift(leaves: list[LeafSpec], disp: int) -> list[LeafSpec]:
    return [
        LeafSpec(offset=leaf.offset + disp, size=leaf.size, levels=leaf.levels)
        for leaf in leaves
    ]


def _placed(
    leaves: list[LeafSpec], extent: int, entries: Iterable[tuple[int, int]]
) -> list[LeafSpec]:
    """Hindexed placement: ``_wrap(leaves, blk, extent)`` shifted by
    ``disp``, per ``(disp, blk)`` entry."""
    if len(leaves) == 1 and not leaves[0].levels and leaves[0].size == extent:
        # A plain block: every entry is one block (merge rules (a), (b)).
        offset, size = leaves[0].offset, leaves[0].size
        return [
            LeafSpec(offset=offset + disp, size=size * blk)
            for disp, blk in entries
            if blk
        ]
    out: list[LeafSpec] = []
    for disp, blk in entries:
        out.extend(_shift(_wrap(leaves, blk, extent), disp))
    return out


def _merge_adjacent(leaves: list[LeafSpec]) -> list[LeafSpec]:
    """Merge rule (c): fuse consecutive leaves forming one bigger block.

    Two leaves fuse when they have identical stacks and the second's block
    starts exactly where the first's ends — e.g. the int and char[2] fields
    of the paper's Fig. 3 struct become one 6-byte (merged) block in Fig. 5.
    """
    if not leaves:
        return []
    out = [leaves[0]]
    for leaf in leaves[1:]:
        prev = out[-1]
        if (
            leaf.levels == prev.levels
            and leaf.offset == prev.offset + prev.size
            and prev.size > 0
        ):
            out[-1] = LeafSpec(
                offset=prev.offset, size=prev.size + leaf.size, levels=prev.levels
            )
        else:
            out.append(leaf)
    return [leaf for leaf in out if leaf.size > 0 and leaf.block_count > 0]


def leaves_of(dtype: Datatype) -> list[LeafSpec]:
    """Leaves (with stacks) of one instance of ``dtype``, pre-merge."""
    # Imported here to avoid a hard dependency cycle at module load.
    from ..datatypes import basic as _basic
    from ..datatypes import constructors as _cons

    if isinstance(dtype, _basic.BasicType):
        return [LeafSpec(offset=0, size=dtype.size)]

    if isinstance(dtype, _cons.Contiguous):
        return _wrap(leaves_of(dtype.oldtype), dtype.count, dtype.oldtype.extent)

    if isinstance(dtype, _cons.Hvector):  # covers Vector too
        inner = _wrap(
            leaves_of(dtype.oldtype), dtype.blocklength, dtype.oldtype.extent
        )
        return _wrap(inner, dtype.count, dtype.stride_bytes)

    if isinstance(dtype, _cons.Hindexed):  # covers Indexed too
        return _placed(
            leaves_of(dtype.oldtype),
            dtype.oldtype.extent,
            zip(dtype.displacements_bytes, dtype.blocklengths),
        )

    if isinstance(dtype, _cons.Struct):
        out: list[LeafSpec] = []
        for disp, blk, field_type in zip(
            dtype.displacements_bytes, dtype.blocklengths, dtype.types
        ):
            out.extend(
                _placed(leaves_of(field_type), field_type.extent, [(disp, blk)])
            )
        return out

    if isinstance(dtype, _cons.Subarray):
        strides = dtype.dim_strides()
        leaves = _wrap(
            leaves_of(dtype.oldtype), dtype.subsizes[-1], dtype.oldtype.extent
        )
        for dim in range(len(dtype.sizes) - 2, -1, -1):
            leaves = _wrap(leaves, dtype.subsizes[dim], strides[dim])
        offset = sum(s * st for s, st in zip(dtype.starts, strides))
        return _shift(leaves, offset)

    if isinstance(dtype, _cons.Resized):
        return leaves_of(dtype.oldtype)

    from ..datatypes.base import DatatypeError

    raise DatatypeError(f"cannot flatten datatype {dtype!r}")


def build_flattened(dtype: Datatype) -> FlattenedType:
    """Commit-time construction of the flattened representation."""
    leaves = _merge_adjacent(leaves_of(dtype))
    return FlattenedType(
        leaves=tuple(leaves),
        size=dtype.size,
        extent=dtype.extent,
        lb=dtype.lb,
    )
