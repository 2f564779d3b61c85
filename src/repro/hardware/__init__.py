"""Node hardware models (S3): CPU store path, caches, memory copies.

The interconnect-side models live in :mod:`repro.hardware.sci`.
"""

from .memory import MemorySystem
from .node import Node
from .params import (
    DEFAULT_NODE,
    CacheSpec,
    MemoryParams,
    NodeParams,
    PCIParams,
    SCIAdapterParams,
    SCILinkParams,
    WriteCombineParams,
    congestion_fraction,
)

__all__ = [
    "CacheSpec",
    "DEFAULT_NODE",
    "MemoryParams",
    "MemorySystem",
    "Node",
    "NodeParams",
    "PCIParams",
    "SCIAdapterParams",
    "SCILinkParams",
    "WriteCombineParams",
    "congestion_fraction",
]
