"""Cost of a direct_pack_ff remote chunk write (Fig. 4).

**direct_pack_ff** packs straight into the remote packet buffer and
unpacks straight out of the local one: no extra copies, but per-block
loop cost and, for sub-line blocks, degraded stream gathering.  The
contiguous chunk write that the **generic** (recursive pack, then a
contiguous transfer) and **contiguous** techniques share is the fabric's
own :meth:`~repro.hardware.sci.fabric.SCIFabric.write_duration`, and the
local copy loops are :meth:`~repro.hardware.memory.MemorySystem.walk_cost`.

Durations are in µs; nothing here moves bytes.
"""

from __future__ import annotations

from ...hardware.memory import MemorySystem
from ...hardware.params import NodeParams
from ...hardware.sci.transactions import AccessRun, remote_write_cost
from .config import ProtocolConfig

__all__ = ["direct_remote_chunk_duration"]


def direct_remote_chunk_duration(
    params: NodeParams,
    memory: MemorySystem,
    dst_offset: int,
    groups: list[tuple[int, int]],
    config: ProtocolConfig,
    src_cached: bool,
) -> float:
    """Stand-alone duration of a direct_pack_ff chunk write.

    Pipeline stages: the stack-loop feed (reading the strided source),
    and the store/transaction stream.  Blocks below
    ``direct_gather_min_block`` are emitted as individual sub-line SCI
    transactions (stream gathering defeated); larger blocks stream like a
    contiguous write because their target addresses are consecutive.
    """
    feed = memory.walk_cost(groups, "ff", True, config)
    if feed == 0.0:
        return 0.0
    if not src_cached:
        # The strided source is read from main memory a cache line at a
        # time; blocks smaller than a line fetch mostly gap bytes.
        line = memory.params.caches.line_size
        fetched = sum(
            count * (-(-length // line)) * line for length, count in groups
        )
        feed = max(feed, fetched / memory.params.main_read_bw)

    gathered_bytes = 0
    txn_time = 0.0
    adapter = params.adapter
    link = params.link
    for length, count in groups:
        if length == 0 or count == 0:
            continue
        if length < config.direct_gather_min_block:
            # One SCI transaction per block (plus wire time) and a
            # stream-buffer allocate/flush per burst.
            txn_time += count * (
                adapter.txn_overhead
                + config.direct_gather_miss_cost
                + (length + link.packet_header) / link.bandwidth
            )
        else:
            gathered_bytes += length * count
    if gathered_bytes:
        contiguous = remote_write_cost(
            AccessRun.contiguous(dst_offset, gathered_bytes),
            params,
            src_cached=True,  # the feed term already covers source reads
        )
        txn_time += max(contiguous.pci_time, contiguous.sci_time)

    duration = max(feed, txn_time) + adapter.pio_op_overhead
    return duration
