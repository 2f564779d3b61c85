"""The one bounded LRU memo of the stack.

:class:`CostTable` memoizes values of pure functions by hashable keys
with hit / miss / eviction counters.  Its owners build the keys: the
fabric and each rank's transfer scheduler key transaction costs by
``(kind, alignment, geometry, src_cached)`` — *alignment* is the target
offset modulo :attr:`~repro.hardware.params.NodeParams.write_alignment`,
never the absolute offset — and the pack-plan cache keys plans by
``(ft, count)``.  A hit returns exactly what a recomputation would, so no
simulated value depends on a table.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

__all__ = ["CostTable"]


class CostTable:
    """Bounded LRU of pure values keyed by hashable tuples."""

    def __init__(self, maxsize: int = 512):
        if maxsize < 1:
            raise ValueError(f"cost table maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._costs: "OrderedDict[tuple, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._costs)

    def lookup(self, key: tuple, compute: Callable[[], Any]) -> Any:
        value = self._costs.get(key)
        if value is not None:
            self._costs.move_to_end(key)
            self.hits += 1
            return value
        self.misses += 1
        value = compute()
        self._costs[key] = value
        while len(self._costs) > self.maxsize:
            self._costs.popitem(last=False)
            self.evictions += 1
        return value

    def clear(self) -> None:
        self._costs.clear()
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._costs),
            "maxsize": self.maxsize,
        }
