"""Byte-level memory substrate (S2): address spaces, buffers, layouts.

Every simulated process owns an :class:`AddressSpace`; all message payloads,
packet buffers and RMA windows are :class:`Buffer` views into one.  Transfers
in the simulation move real bytes between these arrays, which is what lets
the test suite check byte-exact delivery of every protocol path.
:class:`CostTable` is the one bounded LRU memo the cost and plan layers
share.
"""

from .address_space import AddressSpace, OutOfMemory
from .buffer import Buffer
from .memo import CostTable
from .layout import (
    Block,
    strided_blocks,
    strided_view,
    total_bytes,
)

__all__ = [
    "AddressSpace",
    "Block",
    "Buffer",
    "CostTable",
    "OutOfMemory",
    "strided_blocks",
    "strided_view",
    "total_bytes",
]
