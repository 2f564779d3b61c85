"""MPI-level exception types."""

from __future__ import annotations

__all__ = [
    "MPIError",
    "MessageTruncated",
    "CommunicationError",
    "RMAError",
    "TransferFault",
    "TransferAborted",
]


class MPIError(RuntimeError):
    """Base class of all MPI usage/runtime errors."""


class MessageTruncated(MPIError):
    """A received message is larger than the posted receive buffer
    (MPI_ERR_TRUNCATE)."""


class CommunicationError(MPIError):
    """A transfer failed at the interconnect level (node/link failure)."""


class TransferFault(CommunicationError):
    """A transfer failed recoverably and its sender must choose the
    recovery: ``RemoteStore.deliver_with_retry`` raises it with
    ``unmapped`` set for a revoked segment mapping it was given no way to
    remap (a window then falls back to emulation)."""

    def __init__(self, msg: str, unmapped: bool = False):
        super().__init__(msg)
        self.unmapped = unmapped


class TransferAborted(CommunicationError):
    """Recovery gave up: the bounded retransmission budget
    (``repro.mpi.transport.store.MAX_RETRANSMITS``) was exhausted."""


class RMAError(MPIError):
    """One-sided communication misuse (bad window, bad epoch, bad target)."""
