"""Reusable n-dimensional halo exchange built on Subarray datatypes.

The paper motivates non-contiguous datatypes with grid-code boundary
exchanges (Sec. 3, Fig. 2).  :class:`HaloExchanger` packages that pattern:
give it a communicator, a Cartesian process grid and a local interior
shape, and it builds the per-face :class:`~repro.mpi.datatypes.Subarray`
types over a halo-padded local array and runs the full exchange with
non-blocking sends/receives.

Example (2-D, 5-point stencil)::

    halo = HaloExchanger(comm, proc_shape=(2, 2), interior=(64, 64))
    buf = ctx.alloc(halo.nbytes)
    grid = halo.view(buf)                 # (66, 66) ndarray incl. halo ring
    ...initialize grid[1:-1, 1:-1]...
    yield from halo.exchange(buf)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..mpi.datatypes import DOUBLE, BasicType, Subarray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..memlib import Buffer
    from ..mpi.comm import Communicator

__all__ = ["CartDecomposition", "HaloExchanger"]

#: Tag space reserved for halo traffic.
HALO_TAG = 1 << 16


class CartDecomposition:
    """A Cartesian process grid (C-order rank numbering)."""

    def __init__(self, proc_shape: Sequence[int], periodic: bool = False):
        if not proc_shape or any(p < 1 for p in proc_shape):
            raise ValueError(f"invalid process grid {proc_shape}")
        self.proc_shape = tuple(proc_shape)
        self.periodic = periodic
        self.size = 1
        for p in self.proc_shape:
            self.size *= p

    def coords(self, rank: int) -> tuple[int, ...]:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside grid of {self.size}")
        out = []
        for p in reversed(self.proc_shape):
            out.append(rank % p)
            rank //= p
        return tuple(reversed(out))

    def rank_at(self, coords: Sequence[int]) -> int:
        rank = 0
        for c, p in zip(coords, self.proc_shape):
            if not 0 <= c < p:
                raise ValueError(f"coordinate {c} outside dimension {p}")
            rank = rank * p + c
        return rank

    def neighbour(self, rank: int, dim: int, direction: int) -> Optional[int]:
        """Rank of the neighbour one step along ``dim`` (+1/-1), or None."""
        coords = list(self.coords(rank))
        coords[dim] += direction
        p = self.proc_shape[dim]
        if self.periodic:
            coords[dim] %= p
        elif not 0 <= coords[dim] < p:
            return None
        return self.rank_at(coords)


class HaloExchanger:
    """Halo exchange over a block-decomposed n-D grid."""

    def __init__(
        self,
        comm: "Communicator",
        proc_shape: Sequence[int],
        interior: Sequence[int],
        halo: int = 1,
        element: BasicType = DOUBLE,
        periodic: bool = False,
    ):
        if len(proc_shape) != len(interior):
            raise ValueError("proc_shape and interior must have equal rank")
        if halo < 1:
            raise ValueError(f"halo width must be >= 1, got {halo}")
        if any(s < halo for s in interior):
            raise ValueError("interior must be at least as wide as the halo")
        self.comm = comm
        self.cart = CartDecomposition(proc_shape, periodic=periodic)
        if self.cart.size != comm.size:
            raise ValueError(
                f"process grid {tuple(proc_shape)} needs {self.cart.size} "
                f"ranks, communicator has {comm.size}"
            )
        self.interior = tuple(interior)
        self.halo = halo
        self.element = element
        #: Local array shape including the halo ring.
        self.padded = tuple(s + 2 * halo for s in self.interior)

        # Per (dim, direction): the Subarray types for the face we send
        # (the interior boundary slab) and the face we receive into (the
        # halo slab), plus the neighbour rank.
        self._faces: list[tuple[int, int, Optional[int], Subarray, Subarray]] = []
        rank = comm.rank
        for dim in range(len(self.interior)):
            for direction in (-1, +1):
                peer = self.cart.neighbour(rank, dim, direction)
                send_t, recv_t = self._face_types(dim, direction)
                self._faces.append((dim, direction, peer, send_t, recv_t))

    @property
    def nbytes(self) -> int:
        """Bytes of the halo-padded local array."""
        n = self.element.size
        for p in self.padded:
            n *= p
        return n

    def view(self, buf: "Buffer") -> np.ndarray:
        """Typed ndarray view of the padded local array."""
        return buf.as_array(self.element.np_dtype).reshape(self.padded)

    def interior_view(self, buf: "Buffer") -> np.ndarray:
        """View of the interior (halo ring excluded)."""
        view = self.view(buf)
        sel = tuple(slice(self.halo, -self.halo) for _ in self.padded)
        return view[sel]

    def _face_types(self, dim: int, direction: int) -> tuple[Subarray, Subarray]:
        h = self.halo
        subsizes = [s for s in self.interior]
        subsizes[dim] = h
        send_starts = [h] * len(self.padded)
        recv_starts = [h] * len(self.padded)
        if direction == -1:
            send_starts[dim] = h               # first interior slab
            recv_starts[dim] = 0               # lower halo
        else:
            send_starts[dim] = self.padded[dim] - 2 * h  # last interior slab
            recv_starts[dim] = self.padded[dim] - h      # upper halo
        send_t = Subarray(self.padded, tuple(subsizes), tuple(send_starts),
                          self.element).commit()
        recv_t = Subarray(self.padded, tuple(subsizes), tuple(recv_starts),
                          self.element).commit()
        return send_t, recv_t

    def exchange(self, buf: "Buffer"):
        """DES generator: one full halo exchange on ``buf``."""
        if buf.nbytes < self.nbytes:
            raise ValueError(
                f"buffer of {buf.nbytes} B too small for padded grid of "
                f"{self.nbytes} B"
            )
        requests = []
        for dim, direction, peer, send_t, recv_t in self._faces:
            if peer is None:
                continue
            # Tag disambiguates dimension and direction; the receive must
            # use the sender's direction (our -1 face pairs their +1 face).
            send_tag = HALO_TAG + 4 * dim + (0 if direction == -1 else 1)
            recv_tag = HALO_TAG + 4 * dim + (1 if direction == -1 else 0)
            requests.append(self.comm.isend(
                buf, peer, tag=send_tag, datatype=send_t, count=1
            ))
            requests.append(self.comm.irecv(
                buf, source=peer, tag=recv_tag, datatype=recv_t, count=1
            ))
        for req in requests:
            yield from req.wait()
