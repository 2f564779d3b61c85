"""SMI — Shared Memory Interface abstraction layer (S5).

One API for shared regions whether the peer is across the SCI ring or on
the same node, plus the shared-memory spinlocks and barriers SCI-MPICH
uses for one-sided synchronization.
"""

from .regions import RegionHandle, SharedRegion, SMIContext, SMIError
from .sync import SMIBarrier, SMIRWLock

__all__ = [
    "RegionHandle",
    "SMIBarrier",
    "SMIContext",
    "SMIError",
    "SMIRWLock",
    "SharedRegion",
]
