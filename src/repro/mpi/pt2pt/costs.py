"""Cost composition for the three non-contiguous transfer techniques.

These helpers translate datatype layout information into the stage costs
of the copy pipelines shown in Fig. 4:

* **generic** — recursive pack into a local buffer, contiguous transfer,
  recursive unpack (two extra copies);
* **direct_pack_ff** — pack straight into the remote packet buffer and
  unpack straight out of the local one (no extra copies, but per-block
  loop cost and, for sub-line blocks, degraded stream gathering);
* **contiguous** — the plain reference path.

All functions return durations in µs; none of them move bytes.
"""

from __future__ import annotations

from ...hardware.memory import MemorySystem
from ...hardware.params import NodeParams
from ...hardware.sci.transactions import AccessRun, remote_write_cost
from .config import ProtocolConfig

__all__ = [
    "pack_cost_generic",
    "pack_cost_direct",
    "local_chunk_copy_cost",
    "direct_remote_chunk_duration",
    "contiguous_remote_chunk_duration",
]


def _group_sums(
    groups: list[tuple[int, int]], esize: int = 0
) -> tuple[int, int, int]:
    """Exact ``(bytes, blocks, elements)`` totals of ``(length, count)``
    groups, in one pass; ``elements`` counts ``esize``-byte elements, at
    least one per block (0 when ``esize`` is 0)."""
    nbytes = nblocks = nelements = 0
    for length, count in groups:
        nbytes += length * count
        nblocks += count
        if esize:
            nelements += count * max(1, -(-length // esize))
    return nbytes, nblocks, nelements


def pack_cost_generic(
    memory: MemorySystem,
    groups: list[tuple[int, int]],
    config: ProtocolConfig,
) -> float:
    """Cost of the generic recursive pack (or unpack) of the given blocks.

    The old MPICH segment code the paper replaces walks the datatype tree
    recursively *per basic element*, so the cost has a per-element term,
    a per-block term, and cold main-memory streaming.
    """
    nbytes, nblocks, nelements = _group_sums(
        groups, config.generic_element_size
    )
    if nbytes == 0:
        return 0.0
    return (
        memory.params.copy_call_overhead
        + nelements * config.generic_pack_element_cost
        + nblocks * config.generic_pack_block_cost
        + nbytes / memory.params.main_copy_bw
    )


def pack_cost_direct(
    memory: MemorySystem,
    groups: list[tuple[int, int]],
    config: ProtocolConfig,
) -> float:
    """Cost of the direct_pack_ff copy loop (pack or unpack) for blocks.

    Stack-driven, two nested loops: cheap per-block cost plus streaming.
    Mid-size blocks get the small cache-utilization bonus the paper
    observed intra-node (Sec. 3.4's "surpass" curiosity).
    """
    nbytes, nblocks, _ = _group_sums(groups)
    if nbytes == 0:
        return 0.0
    bw = memory.params.main_copy_bw
    lengths = {length for length, count in groups if count}
    if lengths and all(64 <= length <= 4096 for length in lengths):
        bw *= 1.1  # better cache utilization for mid-size blocked copies
    if len(lengths) > 1 and nbytes > memory.params.caches.l2_size:
        # Sec. 3.3.2: with differently sized basic blocks the ff accesses
        # are "no longer performed with strictly increasing addresses";
        # once one handshake cycle exceeds the L2 size, cache lines thrash.
        # The cure is keeping the rendezvous chunk below the L2 size.
        bw *= 0.5
    return (
        memory.params.copy_call_overhead
        + nblocks * config.direct_pack_block_cost
        + nbytes / bw
    )


def local_chunk_copy_cost(memory: MemorySystem, nbytes: int) -> float:
    """Cost of the protocol copy of one chunk (packet buffer <-> user).

    The chunk was just produced by the peer, so it is cache-cold: stream
    at main-memory bandwidth.
    """
    if nbytes == 0:
        return 0.0
    return memory.params.copy_call_overhead + nbytes / memory.params.main_copy_bw


def contiguous_remote_chunk_duration(
    params: NodeParams, dst_offset: int, nbytes: int, src_cached: bool
) -> float:
    """Stand-alone duration of a contiguous remote chunk write."""
    cost = remote_write_cost(
        AccessRun.contiguous(dst_offset, nbytes), params, src_cached=src_cached
    )
    return cost.duration + params.adapter.pio_op_overhead


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
    nbytes, _, _ = _group_sums(groups)
    if nbytes == 0:
        return 0.0
    feed = pack_cost_direct(memory, groups, config)
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
