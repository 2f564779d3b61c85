"""E1 / Figure 1: raw SCI communication performance.

Latency and bandwidth of PIO remote writes, PIO remote reads and DMA
transfers between two nodes, swept over transfer sizes — the baseline
curves everything else in the paper builds on.
"""

from __future__ import annotations

from .._units import KiB, MiB, to_mib_s
from ..hardware.memory import MemorySystem
from ..hardware.params import DEFAULT_NODE, NodeParams
from ..hardware.sci.transactions import (
    AccessRun,
    dma_cost,
    remote_read_cost,
    remote_write_cost,
)
from .series import Series

__all__ = ["fig1_latency", "fig1_bandwidth", "DEFAULT_SIZES"]

#: Transfer sizes of the Fig. 1 sweep.
DEFAULT_SIZES: list[int] = [
    4, 8, 16, 32, 64, 128, 256, 512,
    1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB,
    1 * MiB, 4 * MiB,
]

#: One-hop propagation used for the latency chart.
def _hop(params: NodeParams) -> float:
    return params.link.hop_latency


def _pio_write_time(size: int, params: NodeParams) -> float:
    cost = remote_write_cost(AccessRun.contiguous(0, size), params,
                             src_cached=MemorySystem(params.memory).src_cached(size))
    return cost.duration + params.adapter.pio_op_overhead + _hop(params)


def _pio_read_time(size: int, params: NodeParams) -> float:
    return (
        remote_read_cost(AccessRun.contiguous(0, size), params)
        + params.adapter.pio_op_overhead
    )


def _dma_time(size: int, params: NodeParams) -> float:
    return dma_cost(size, params) + _hop(params)


def fig1_latency(
    sizes: list[int] | None = None, params: NodeParams = DEFAULT_NODE
) -> list[Series]:
    """Small-data transfer latency (µs) for PIO write / PIO read / DMA."""
    sizes = sizes or [s for s in DEFAULT_SIZES if s <= 1 * KiB]
    write = Series("PIO write", y_unit="µs")
    read = Series("PIO read", y_unit="µs")
    dma = Series("DMA", y_unit="µs")
    for size in sizes:
        write.add(size, _pio_write_time(size, params))
        read.add(size, _pio_read_time(size, params))
        dma.add(size, _dma_time(size, params))
    return [write, read, dma]


def fig1_bandwidth(
    sizes: list[int] | None = None, params: NodeParams = DEFAULT_NODE
) -> list[Series]:
    """Transfer bandwidth (MiB/s) for PIO write / PIO read / DMA."""
    sizes = sizes or DEFAULT_SIZES
    write = Series("PIO write")
    read = Series("PIO read")
    dma = Series("DMA")
    for size in sizes:
        write.add(size, to_mib_s(size / _pio_write_time(size, params)))
        read.add(size, to_mib_s(size / _pio_read_time(size, params)))
        dma.add(size, to_mib_s(size / _dma_time(size, params)))
    return [write, read, dma]
