"""SMI — Shared Memory Interface abstraction layer (S5).

One API for shared regions whether the peer is across the SCI ring or on
the same node, plus the shared-memory spinlocks and barriers SCI-MPICH
uses for one-sided synchronization.
"""

from .regions import SharedRegion, SMIContext, SMIError
from .sync import SMIBarrier, SMIRWLock

__all__ = [
    "SMIBarrier",
    "SMIContext",
    "SMIError",
    "SMIRWLock",
    "SharedRegion",
]
