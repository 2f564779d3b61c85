"""Per-process address spaces backed by numpy byte arrays.

Each simulated MPI rank owns one :class:`AddressSpace`.  All message data,
packet buffers and RMA windows live inside these arrays, so every transfer
moves real bytes and tests can assert byte-exact delivery.  Only eager slots
and the OSC response region stage bytes on their way; rendezvous packet
buffers set what a chunk costs, but no transfer writes their pages.

Allocation is a simple bump allocator with alignment — fragmentation never
matters because simulated programs allocate a fixed set of buffers up front,
exactly like the SCI driver's segment allocator the paper describes.
"""

from __future__ import annotations


import numpy as np

from .._units import align_up
from .buffer import Buffer


class OutOfMemory(MemoryError):
    """The address space bump allocator ran out of room."""


class AddressSpace:
    """A flat byte-addressable memory belonging to one simulated process."""

    def __init__(self, size: int, owner: str = ""):
        if size <= 0:
            raise ValueError(f"address space size must be positive, got {size}")
        #: The backing store. ``uint8`` so views of any dtype can be taken.
        self.mem: np.ndarray = np.zeros(size, dtype=np.uint8)
        self.owner = owner
        self._brk = 0

    @property
    def size(self) -> int:
        return self.mem.nbytes

    @property
    def allocated(self) -> int:
        """Bytes handed out so far."""
        return self._brk

    def alloc(self, nbytes: int, alignment: int = 8, label: str = "") -> Buffer:
        """Allocate ``nbytes`` with the given power-of-two ``alignment``."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        base = align_up(self._brk, alignment)
        end = base + nbytes
        if end > self.size:
            raise OutOfMemory(
                f"address space {self.owner!r}: cannot allocate {nbytes} B "
                f"(brk={self._brk}, size={self.size})"
            )
        self._brk = end
        return Buffer(self, base, nbytes, label=label)

    def buffer(self, offset: int, nbytes: int, label: str = "") -> Buffer:
        """A buffer view over an arbitrary existing range (no allocation)."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) outside address space "
                f"of size {self.size}"
            )
        return Buffer(self, offset, nbytes, label=label)

    # -- raw access (used by Buffer and by the hardware models) ---------------

    def read(self, offset: int, nbytes: int) -> np.ndarray:
        """Return a *view* of ``nbytes`` at ``offset``."""
        self._check(offset, nbytes)
        return self.mem[offset : offset + nbytes]

    def write(self, offset: int, data: np.ndarray | bytes | bytearray) -> None:
        """Copy ``data`` into the space at ``offset``."""
        src = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else data
        if src.dtype != np.uint8:
            src = src.view(np.uint8)
        self._check(offset, src.nbytes)
        self.mem[offset : offset + src.nbytes] = src.reshape(-1)

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise IndexError(
                f"access [{offset}, {offset + nbytes}) outside address space "
                f"{self.owner!r} of size {self.size}"
            )

    def __repr__(self) -> str:
        return (
            f"<AddressSpace {self.owner!r} size={self.size} "
            f"allocated={self._brk}>"
        )
