"""MPI derived-datatype constructors.

Each constructor mirrors its MPI counterpart (Sec. 3.1 of the paper /
MPI-1 Sec. 3.12): contiguous, vector, hvector, indexed, hindexed, struct,
plus ``Resized`` for explicit lb/extent control (MPI-2's
``MPI_Type_create_resized``, subsuming the MPI_LB/MPI_UB markers).

Strides and displacements follow MPI conventions:

* ``Vector``/``Indexed`` measure stride/displacements in *extents of the
  old type*;
* ``Hvector``/``Hindexed``/``Struct`` measure them in *bytes* (the "h"
  stands for heterogeneous);
* negative strides/displacements are legal and produce a negative lb.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .base import Datatype, DatatypeError

__all__ = [
    "Contiguous",
    "Vector",
    "Hvector",
    "Indexed",
    "Hindexed",
    "Struct",
    "Subarray",
    "Resized",
]


def _span(parts: Iterable[tuple[int, Datatype, int]]) -> tuple[int, int]:
    """(lb, ub) over (displacement, type, replication) parts.

    Each part occupies [disp + lb, disp + lb + repl*extent) in the usual
    MPI sense (replication advances by the type extent, which is never
    negative); parts replicated zero times occupy nothing.
    """
    lo = hi = None
    for disp, dtype, repl in parts:
        if repl == 0:
            continue
        first = disp + dtype.lb
        last = first + repl * dtype.extent
        if lo is None:
            lo, hi = first, last
        else:
            if first < lo:
                lo = first
            if last > hi:
                hi = last
    return (0, 0) if lo is None else (lo, hi)


def _strided_span(
    count: int, blocklength: int, stride_bytes: int, oldtype: Datatype
) -> tuple[int, int]:
    """(lb, ub) of ``count`` blocks ``stride_bytes`` apart, in closed form.

    All blocks have the same shape, so the first and the last one decide:
    whichever lies lower sets lb, the other ub.
    """
    if count == 0 or blocklength == 0:
        return (0, 0)
    last = (count - 1) * stride_bytes
    lb = oldtype.lb + min(0, last)
    ub = oldtype.lb + blocklength * oldtype.extent + max(0, last)
    return (lb, ub)


class Contiguous(Datatype):
    """``count`` consecutive instances of ``oldtype``."""

    combiner = "contiguous"

    def __init__(self, count: int, oldtype: Datatype):
        if count < 0:
            raise DatatypeError(f"negative count: {count}")
        self.count = count
        self.oldtype = oldtype
        # One block of ``count`` oldtypes.
        lb, ub = _strided_span(1, count, 0, oldtype)
        super().__init__(size=count * oldtype.size, lb=lb, ub=ub)

    def children(self) -> tuple[Datatype, ...]:
        return (self.oldtype,)


class Hvector(Datatype):
    """``count`` blocks of ``blocklength`` oldtypes, ``stride_bytes`` apart."""

    combiner = "hvector"

    def __init__(self, count: int, blocklength: int, stride_bytes: int, oldtype: Datatype):
        if count < 0 or blocklength < 0:
            raise DatatypeError("count and blocklength must be non-negative")
        self.count = count
        self.blocklength = blocklength
        self.stride_bytes = stride_bytes
        self.oldtype = oldtype
        lb, ub = _strided_span(count, blocklength, stride_bytes, oldtype)
        super().__init__(size=count * blocklength * oldtype.size, lb=lb, ub=ub)

    def children(self) -> tuple[Datatype, ...]:
        return (self.oldtype,)


class Vector(Hvector):
    """Like :class:`Hvector` but with the stride in oldtype extents."""

    combiner = "vector"

    def __init__(self, count: int, blocklength: int, stride: int, oldtype: Datatype):
        self.stride = stride
        super().__init__(count, blocklength, stride * oldtype.extent, oldtype)


class Hindexed(Datatype):
    """Blocks of varying length at explicit byte displacements."""

    combiner = "hindexed"

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements_bytes: Sequence[int],
        oldtype: Datatype,
    ):
        if len(blocklengths) != len(displacements_bytes):
            raise DatatypeError(
                f"{len(blocklengths)} blocklengths vs "
                f"{len(displacements_bytes)} displacements"
            )
        if any(b < 0 for b in blocklengths):
            raise DatatypeError("negative blocklength")
        self.blocklengths = tuple(blocklengths)
        self.displacements_bytes = tuple(displacements_bytes)
        self.oldtype = oldtype
        lb, ub = _span(
            (disp, oldtype, blk)
            for disp, blk in zip(self.displacements_bytes, self.blocklengths)
        )
        super().__init__(
            size=sum(self.blocklengths) * oldtype.size, lb=lb, ub=ub
        )

    def children(self) -> tuple[Datatype, ...]:
        return (self.oldtype,)


class Indexed(Hindexed):
    """Like :class:`Hindexed` with displacements in oldtype extents."""

    combiner = "indexed"

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements: Sequence[int],
        oldtype: Datatype,
    ):
        self.displacements = tuple(displacements)
        super().__init__(
            blocklengths,
            [d * oldtype.extent for d in displacements],
            oldtype,
        )


class Struct(Datatype):
    """Heterogeneous fields: per-field blocklength, byte displacement, type."""

    combiner = "struct"

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements_bytes: Sequence[int],
        types: Sequence[Datatype],
    ):
        if not (len(blocklengths) == len(displacements_bytes) == len(types)):
            raise DatatypeError("struct field lists must have equal length")
        if any(b < 0 for b in blocklengths):
            raise DatatypeError("negative blocklength")
        self.blocklengths = tuple(blocklengths)
        self.displacements_bytes = tuple(displacements_bytes)
        self.types = tuple(types)
        lb, ub = _span(
            zip(self.displacements_bytes, self.types, self.blocklengths)
        )
        size = sum(b * t.size for b, t in zip(self.blocklengths, self.types))
        super().__init__(size=size, lb=lb, ub=ub)

    def children(self) -> tuple[Datatype, ...]:
        return self.types


class Subarray(Datatype):
    """An n-dimensional subarray of a larger array (MPI_Type_create_subarray).

    ``sizes`` are the full array dimensions, ``subsizes`` the selected
    region, ``starts`` its origin — all in elements of ``oldtype``, with
    C (row-major) ordering.  The extent equals the full array, so
    consecutive instances tile whole arrays.

    This is the natural datatype for halo exchanges: a face of a 3-D grid
    is one Subarray definition instead of nested (h)vectors.
    """

    combiner = "subarray"

    def __init__(
        self,
        sizes: Sequence[int],
        subsizes: Sequence[int],
        starts: Sequence[int],
        oldtype: Datatype,
    ):
        if not (len(sizes) == len(subsizes) == len(starts)):
            raise DatatypeError("sizes/subsizes/starts must have equal rank")
        if not sizes:
            raise DatatypeError("subarray needs at least one dimension")
        for full, sub, start in zip(sizes, subsizes, starts):
            if full <= 0 or sub < 0 or start < 0 or start + sub > full:
                raise DatatypeError(
                    f"invalid subarray slice: start {start} size {sub} "
                    f"within {full}"
                )
        self.sizes = tuple(sizes)
        self.subsizes = tuple(subsizes)
        self.starts = tuple(starts)
        self.oldtype = oldtype
        nelems = 1
        for sub in self.subsizes:
            nelems *= sub
        total = 1
        for full in self.sizes:
            total *= full
        super().__init__(
            size=nelems * oldtype.size, lb=0, ub=total * oldtype.extent
        )

    def children(self) -> tuple[Datatype, ...]:
        return (self.oldtype,)

    def dim_strides(self) -> tuple[int, ...]:
        """Byte stride of each dimension of the *full* array (row-major)."""
        elem = self.oldtype.extent
        strides = [elem] * len(self.sizes)
        for dim in range(len(self.sizes) - 2, -1, -1):
            strides[dim] = strides[dim + 1] * self.sizes[dim + 1]
        return tuple(strides)


class Resized(Datatype):
    """``oldtype`` with an explicitly overridden lb and extent."""

    combiner = "resized"

    def __init__(self, oldtype: Datatype, lb: int, extent: int):
        if extent < 0:
            raise DatatypeError(f"negative extent: {extent}")
        self.oldtype = oldtype
        super().__init__(size=oldtype.size, lb=lb, ub=lb + extent)

    def children(self) -> tuple[Datatype, ...]:
        return (self.oldtype,)
