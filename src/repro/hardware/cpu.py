"""CPU store-issue model: store decomposition and write-combining.

Transparent remote memory access on SCI means the CPU writes to a mapped
PCI address range with ordinary store instructions.  Three mechanisms shape
how those stores become bus transactions, and all three are modelled here
at *chunk* granularity:

1. **Store decomposition** — the CPU writes at most ``store_width`` (8)
   bytes per instruction, and only to naturally aligned addresses, so a
   misaligned block becomes several narrow stores.
2. **Write-combining (WC)** — the Pentium-III gathers stores into 32-byte
   WC lines; a fully dirtied line flushes as one burst, while a partially
   dirtied line flushes as its dirty byte-runs (this is the paper's
   Sec. 4.3 stride-alignment effect).
3. Natural-alignment splitting of bus transactions happens downstream in
   :mod:`repro.hardware.sci.transactions`.

Chunks are ``(addr, size)`` tuples in increasing stream order.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Chunk = tuple[int, int]


def store_units(addr: int, size: int, store_width: int = 8) -> list[Chunk]:
    """Decompose a contiguous block into naturally aligned store units.

    Greedy: at each position issue the widest store that is (a) within
    ``store_width``, (b) within the remaining bytes, and (c) naturally
    aligned at the current address.
    """
    if size < 0:
        raise ValueError(f"negative size: {size}")
    if store_width <= 0 or store_width & (store_width - 1):
        raise ValueError(f"store_width must be a power of two: {store_width}")
    units: list[Chunk] = []
    pos = addr
    remaining = size
    while remaining > 0:
        width = store_width
        while width > 1 and (pos % width or width > remaining):
            width >>= 1
        units.append((pos, width))
        pos += width
        remaining -= width
    return units


def count_store_units(addr: int, size: int, store_width: int = 8) -> int:
    """Number of stores for a block, without materialising the list.

    Closed form: misaligned head + aligned bulk + tail.
    """
    if size < 0:
        raise ValueError(f"negative size: {size}")
    count = 0
    pos, remaining = addr, size
    # Head: narrow stores until aligned to store_width (or block exhausted).
    while remaining > 0 and pos % store_width:
        width = store_width
        while width > 1 and (pos % width or width > remaining):
            width >>= 1
        count += 1
        pos += width
        remaining -= width
    # Bulk: full-width stores.
    count += remaining // store_width
    pos += (remaining // store_width) * store_width
    remaining %= store_width
    # Tail: narrow stores for the remainder.
    while remaining > 0:
        width = store_width
        while width > 1 and (pos % width or width > remaining):
            width >>= 1
        count += 1
        pos += width
        remaining -= width
    return count


def coalesce_within_windows(
    chunks: Iterable[Chunk], window: int
) -> Iterator[Chunk]:
    """Merge *adjacent* chunks that fall within one aligned ``window``.

    This models both the WC buffer (window = 32: stores merging into one
    line before the flush) and the adapter stream buffers (window = 64:
    consecutive ascending PCI writes gathering into one SCI transaction).
    Chunks that are not address-adjacent, or that cross a window boundary,
    start a new output chunk — exactly the "strictly sequential, contiguous,
    ascending addresses" requirement of Sec. 2 of the paper.
    """
    if window <= 0 or window & (window - 1):
        raise ValueError(f"window must be a power of two: {window}")
    run_addr = run_size = 0
    have_run = False
    for addr, size in chunks:
        if size == 0:
            continue
        if (
            have_run
            and addr == run_addr + run_size
            and (addr // window) == (run_addr // window)
            and ((addr + size - 1) // window) == (run_addr // window)
        ):
            run_size += size
            continue
        if have_run:
            yield (run_addr, run_size)
        # A chunk may itself span window boundaries; split it so every run
        # lives in exactly one window (a WC line / stream buffer holds one
        # aligned line's worth of data).
        while size > 0:
            boundary = (addr // window + 1) * window
            piece = min(size, boundary - addr)
            if size > piece:
                yield (addr, piece)
                addr += piece
                size -= piece
            else:
                run_addr, run_size = addr, piece
                have_run = True
                size = 0
    if have_run:
        yield (run_addr, run_size)
