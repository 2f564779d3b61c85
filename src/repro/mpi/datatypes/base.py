"""Datatype base class: the user-visible MPI datatype object.

An MPI datatype describes a (possibly non-contiguous) layout of basic
typed elements relative to a base address.  Datatypes form a tree — the
leaves are basic types and inner nodes are constructors (contiguous,
vector, hvector, indexed, hindexed, struct), exactly the representation
sketched in Fig. 3 of the paper.

Key quantities (MPI semantics):

* ``size``   — number of bytes of actual data (gaps excluded);
* ``lb``/``ub`` — lower/upper bound of the occupied span;
* ``extent`` — ``ub - lb``: the stride between consecutive instances when
  a count > 1 is communicated.

``commit()`` freezes the type and builds the flattened representation
(:class:`repro.mpi.flatten.FlattenedType`) used by both the generic pack
engine and the direct_pack_ff transfer path.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..errors import MPIError
from ..flatten import FlattenedType, PackError, build_flattened, get_plan

__all__ = ["Datatype", "DatatypeError"]


class DatatypeError(ValueError):
    """Invalid datatype construction or use."""


class Datatype:
    """Base class of all MPI datatypes."""

    #: A short constructor tag for repr/debugging ("basic", "vector", ...).
    combiner: str = "abstract"

    def __init__(self, size: int, lb: int, ub: int):
        if size < 0:
            raise DatatypeError(f"negative size: {size}")
        if ub < lb:
            raise DatatypeError(f"ub {ub} < lb {lb}")
        self._size = size
        self._lb = lb
        self._ub = ub
        self._flattened: Optional["FlattenedType"] = None

    # -- MPI quantities ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Bytes of data per instance (gaps excluded)."""
        return self._size

    @property
    def lb(self) -> int:
        return self._lb

    @property
    def ub(self) -> int:
        return self._ub

    @property
    def extent(self) -> int:
        """Span of one instance, including gaps (= instance stride)."""
        return self._ub - self._lb

    @property
    def committed(self) -> bool:
        return self._flattened is not None

    @property
    def is_contiguous(self) -> bool:
        """True when data occupies one gap-free run starting at lb."""
        flat = self.flattened
        return (
            len(flat.leaves) == 1
            and not flat.leaves[0].levels
            and flat.leaves[0].offset == self.lb
            and flat.leaves[0].size == self.size
        )

    # -- structure --------------------------------------------------------------

    def children(self) -> tuple["Datatype", ...]:
        """Component types (empty for basic types)."""
        return ()

    @property
    def depth(self) -> int:
        """Height of the datatype tree (basic type = 1)."""
        kids = self.children()
        return 1 + (max(k.depth for k in kids) if kids else 0)

    def walk(self) -> Iterator["Datatype"]:
        """Pre-order traversal of the datatype tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    # -- commit / flatten ---------------------------------------------------------

    def commit(self) -> "Datatype":
        """Freeze the type and build the flattened representation.

        Committing is when the library "may generate an optimized
        representation of the datatype" (paper Sec. 3.1) — here, the
        ff-stacks of Sec. 3.3.1.
        """
        if self._flattened is None:
            self._flattened = build_flattened(self)
        return self

    @property
    def flattened(self) -> "FlattenedType":
        """The committed flat representation (commits on first use)."""
        if self._flattened is None:
            self.commit()
        assert self._flattened is not None
        return self._flattened

    # -- user-level pack/unpack (MPI_Pack / MPI_Unpack) ---------------------------

    def buffer_plan(self, buf, count: int):
        """The packing plan of ``count`` instances anchored at ``buf``.

        Raises :class:`~repro.mpi.errors.MPIError` unless every byte the
        plan touches lies inside ``buf`` (the last instance need not bring
        its trailing gap along).
        """
        plan = get_plan(self.flattened, count)
        low, high = plan.bounds
        if low < 0 or high > buf.nbytes:
            raise MPIError(
                f"{count} x {self!r} touches bytes [{low}, {high}) of a "
                f"{buf.nbytes} B buffer"
            )
        return plan

    def pack_from(self, buf, count: int = 1):
        """Pack ``count`` instances anchored at ``buf`` into a byte array.

        ``buf`` is a :class:`repro.memlib.Buffer` whose base address is the
        datatype's anchor (MPI's ``inbuf``).
        """
        return self.buffer_plan(buf, count).execute_pack(buf.space.mem, buf.base)

    def unpack_into(self, buf, data, count: int = 1) -> None:
        """Unpack a packed byte array into ``count`` instances at ``buf``."""
        import numpy as np

        if not isinstance(data, np.ndarray):
            data = np.frombuffer(bytes(data), dtype=np.uint8)
        plan = self.buffer_plan(buf, count)
        if data.nbytes != plan.total:
            raise PackError(f"payload {data.nbytes} B, expected {plan.total} B")
        plan.execute_unpack(buf.space.mem, buf.base, 0, data)

    def pack_size(self, count: int = 1) -> int:
        """Bytes needed to pack ``count`` instances (MPI_Pack_size)."""
        return self.size * count

    def signature(self) -> tuple[tuple[int, int], ...]:
        """Flattened type signature: (block length, repetitions) per leaf.

        Equal signatures guarantee byte-compatible packed streams
        (leaf-major order, see :mod:`repro.mpi.flatten`).  The check is
        conservative: structurally different types can still be stream
        compatible (e.g. any two layouts of the same basic elements in
        identical order).
        """
        return tuple(
            (leaf.size, leaf.block_count) for leaf in self.flattened.leaves
        )

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.combiner} size={self.size} "
            f"extent={self.extent}>"
        )
