"""Byte-level memory substrate (S2): address spaces, buffers, layouts.

Every simulated process owns an :class:`AddressSpace`; all message payloads,
packet buffers and RMA windows are :class:`Buffer` views into one.  Transfers
in the simulation move real bytes between these arrays, which is what lets
the test suite check byte-exact delivery of every protocol path.
"""

from .address_space import AddressSpace, OutOfMemory, copy_between
from .buffer import Buffer
from .layout import (
    Block,
    double_strided_blocks,
    iter_span,
    merge_adjacent,
    strided_blocks,
    strided_view,
    total_bytes,
)

__all__ = [
    "AddressSpace",
    "Block",
    "Buffer",
    "OutOfMemory",
    "copy_between",
    "double_strided_blocks",
    "iter_span",
    "merge_adjacent",
    "strided_blocks",
    "strided_view",
    "total_bytes",
]
