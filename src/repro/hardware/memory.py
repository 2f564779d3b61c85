"""Cache-aware local memory-copy cost model.

Local copies are the protagonist of the paper's Sec. 3: the generic
non-contiguous send spends its time in pack/unpack copies, and the
intra-node results of Fig. 7 (direct_pack_ff occasionally *beating* the
contiguous transfer) are pure cache effects.  One function,
:meth:`MemorySystem.walk_cost`, prices every copy inside a node:

* the copy rate follows the walk's working set (its total bytes fit L1,
  L2 or neither), or main memory when the source is cache-cold;
* each copy loop adds its own per-block and per-element terms (loop +
  address arithmetic), which is what makes tiny blocks slow.
"""

from __future__ import annotations

from .params import MemoryParams

__all__ = ["MemorySystem"]


class MemorySystem:
    """Cost model for copies inside one node's memory."""

    def __init__(self, params: MemoryParams):
        self.params = params

    def copy_bandwidth(self, nbytes: int) -> float:
        """Streaming copy bandwidth of a walk over ``nbytes``.

        The thresholds follow the cache hierarchy: a copy whose working set
        (source + destination) fits L1 streams fastest, one fitting L2
        streams at L2 speed, anything larger at main-memory speed.
        """
        if nbytes <= 0:
            raise ValueError(f"non-positive copy size: {nbytes}")
        p = self.params
        caches = p.caches
        if 2 * nbytes <= caches.l1_size:
            return p.l1_copy_bw
        if 2 * nbytes <= caches.l2_size:
            return p.l2_copy_bw
        return p.main_copy_bw

    def src_cached(self, nbytes: int) -> bool:
        """Is a source of ``nbytes`` still in L2 while it is fed to the
        wire: does it fit there next to its destination?"""
        return 2 * nbytes <= self.params.caches.l2_size

    def walk_cost(self, groups: list[tuple[int, int]], loop: str, cold: bool,
                  config=None) -> float:
        """Duration (µs) of one copy loop over ``(block_len, count)``
        groups; 0 for an empty walk.

        A ``cold`` walk (its source was just produced elsewhere) streams
        at the main-memory rate, a warm one at :meth:`copy_bandwidth` of
        its total bytes.  ``loop`` adds its terms to the call overhead:

        * ``"copy"`` — a plain copy loop: ``per_block_overhead`` for each
          block after the first, so a contiguous copy is one block;
        * ``"ff"`` — the direct_pack_ff stack loop:
          ``direct_pack_block_cost`` per block, and the paper's two rate
          effects: x1.1 when every block is 64 B-4 kiB (the intra-node
          "surpass" of Sec. 3.4) and x0.5 for mixed block lengths beyond
          L2 (Sec. 3.3.2: the accesses are "no longer performed with
          strictly increasing addresses", so cache lines thrash);
        * ``"generic"`` — the recursive walk per basic element:
          ``generic_pack_element_cost`` per ``generic_element_size``-byte
          element (at least one per block), ``generic_pack_block_cost``
          per block.

        ``config`` is the ``ProtocolConfig`` that holds the ff and generic
        terms.
        """
        esize = config.generic_element_size if loop == "generic" else 0
        nbytes = nblocks = nelements = 0
        for length, count in groups:
            nbytes += length * count
            nblocks += count
            if esize:
                nelements += count * max(1, -(-length // esize))
        if nbytes == 0:
            return 0.0
        p = self.params
        bw = p.main_copy_bw if cold else self.copy_bandwidth(nbytes)
        per_element = 0.0
        if loop == "copy":
            per_block = (nblocks - 1) * p.per_block_overhead
        elif loop == "ff":
            per_block = nblocks * config.direct_pack_block_cost
            lengths = {length for length, count in groups if count}
            if all(64 <= length <= 4096 for length in lengths):
                bw *= 1.1
            if len(lengths) > 1 and nbytes > p.caches.l2_size:
                bw *= 0.5
        elif loop == "generic":
            per_element = nelements * config.generic_pack_element_cost
            per_block = nblocks * config.generic_pack_block_cost
        else:
            raise ValueError(f"unknown copy loop: {loop!r}")
        return p.copy_call_overhead + per_element + per_block + nbytes / bw
