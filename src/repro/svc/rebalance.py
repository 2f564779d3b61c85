"""Live shard migration and key-range splitting for the replicated store.

The :class:`Rebalancer` runs as its own client rank — it owns no data
and uses the same one-sided window as everyone else, so migration
traffic is ordinary fabric traffic.  Crucially, the rebalancer rank is
*not* enrolled in the service's QoS tenant: when the driver reserves
bandwidth for serving clients, migration streams ride the best-effort
lane and get throttled to the documented floor — a background copy can
never starve the serving path (see ``docs/QOS.md``).

One move is a freeze -> drain -> copy -> flip sequence:

1. **freeze** the donor shard: new ops on it spin-wait host-side
   (``rebalance.blocked_ops``); other shards keep serving untouched;
2. **drain** in-flight ops that began under the old epoch
   (``rebalance.drained_ops`` counts ops that completed after a flip);
3. **copy** the whole slot table donor -> acceptor with one
   ``Win.get`` + ``Win.put`` pair per table (the scheduler chunk-streams
   it; ``rebalance.migrated_bytes``/``rebalance.migrated_slots``);
4. **flip** the routing epoch atomically (:meth:`ReplicaMap.thaw`) and
   release the donor table.

Because the shard is quiescent between drain and flip, the copied table
is byte-identical to what the donor would have held — the migration
determinism tests byte-compare post-run shard state against a
no-migration oracle run on this property.

A zipfian-hot shard (one shard dominating the load) is *split* instead
of moved: keys whose hash has the top bit set are re-routed to a new
child shard with its own replica chain, seeded by copying the parent's
primary table (stale slots in the child are unreachable — the key-hash
word filters them out on read).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .failover import ApplyLedger
from .shard import Placement, ReplicaMap
from .store import slot_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..mpi.osc.window import Win

__all__ = ["Rebalancer", "REBALANCE_COLLECTOR_METRICS"]

#: Rebalance metrics pulled by :meth:`Rebalancer.register_metrics` —
#: from the :class:`ReplicaMap` (epoch bookkeeping) and the
#: :class:`Rebalancer` (copy accounting).
REBALANCE_COLLECTOR_METRICS = (
    "rebalance.migrations", "rebalance.splits", "rebalance.migrated_bytes",
    "rebalance.migrated_slots", "rebalance.epoch_flips",
    "rebalance.blocked_ops", "rebalance.drained_ops", "rebalance.epoch",
)

#: Poll interval (simulated µs) of a freeze waiting for the shard's
#: in-flight operations to drain.
DRAIN_POLL_US = 5.0


class Rebalancer:
    """Watches hot-shard accounting; migrates or splits hot shards."""

    def __init__(self, replicas: ReplicaMap, value_size: int,
                 ledger: Optional[ApplyLedger] = None,
                 interval_us: float = 200.0, max_moves: int = 4,
                 split_hot_imbalance: Optional[float] = None):
        self.replicas = replicas
        # Migration is a chain-driver feature, and chain stores are tagged.
        self.slot_size = slot_bytes(value_size, tagged=True)
        self.table_span = replicas.slots_per_shard * self.slot_size
        self.ledger = ledger
        self.interval_us = interval_us
        self.max_moves = max_moves
        #: imbalance ratio above which a hot *base* shard is split
        #: instead of moved (None disables splitting — the migration
        #: determinism oracle requires move-only runs).
        self.split_hot_imbalance = split_hot_imbalance
        # -- copy accounting (pulled by the rebalance collector) --------------
        self.migrations = 0
        self.splits = 0
        self.migrated_bytes = 0
        self.migrated_slots = 0

    @property
    def moves(self) -> int:
        return self.migrations + self.splits

    def register_metrics(self, registry) -> None:
        """Register the ``rebalance.*`` collector (all zero if no rank
        ever runs this rebalancer)."""
        replicas = self.replicas
        registry.register_collector(
            list(REBALANCE_COLLECTOR_METRICS),
            lambda: {
                "rebalance.migrations": self.migrations,
                "rebalance.splits": self.splits,
                "rebalance.migrated_bytes": self.migrated_bytes,
                "rebalance.migrated_slots": self.migrated_slots,
                "rebalance.epoch_flips": replicas.epoch_flips,
                "rebalance.blocked_ops": replicas.blocked_ops,
                "rebalance.drained_ops": replicas.drained_ops,
                "rebalance.epoch": replicas.epoch,
            },
        )

    def run(self, win: "Win", stop: dict):
        """The rebalancer rank's program body, over that rank's window
        handle: poll until the clients flag ``stop["done"]``, acting on
        hot-shard evidence."""
        self.win = win
        self.engine = win.engine
        while not stop.get("done"):
            yield self.engine.timeout(self.interval_us)
            if self.moves >= self.max_moves:
                continue
            hot = self.replicas.hot_shards()
            if not hot:
                continue
            # Hottest first; index tie-break keeps the choice stable.
            shard = max(hot, key=lambda s: (self.replicas.op_counts[s], -s))
            if self._should_split(shard):
                yield from self._split(shard)
            else:
                yield from self._migrate(shard)

    # -- policy ---------------------------------------------------------------

    def _should_split(self, shard: int) -> bool:
        if self.split_hot_imbalance is None:
            return False
        if shard >= self.replicas.n_base_shards:
            return False  # split children are moved, not re-split
        if shard in self.replicas.split_child:
            return False
        return self.replicas.imbalance() >= self.split_hot_imbalance

    def _pick_acceptor(self, shard: int,
                       exclude: set[int]) -> Optional[Placement]:
        """Coldest live server rank with a free table, outside the
        shard's current chain; None when capacity is exhausted."""
        chain_ranks = {p.rank for p in self.replicas.chains[shard]}
        candidates = [
            rank for rank in self.replicas.server_ranks
            if rank not in chain_ranks and rank not in exclude
            and not self.replicas.is_dead(rank)
            and self.replicas.free_tables(rank) > 0
        ]
        if not candidates:
            return None
        rank = min(candidates, key=lambda r: (self.replicas.rank_load(r), r))
        return Placement(rank, self.replicas.take_table(rank))

    # -- the moves ------------------------------------------------------------

    def _quiesce(self, shard: int):
        """Freeze the shard and wait for in-flight old-epoch ops.

        The ops in flight at freeze time are the ones the flip must
        drain against the old epoch — that head count is what
        ``rebalance.drained_ops`` reports.
        """
        self.replicas.freeze(shard)
        self.replicas.drained_ops += self.replicas.inflight[shard]
        while self.replicas.inflight[shard] > 0:
            yield self.engine.timeout(DRAIN_POLL_US)

    def _copy_table(self, src: Placement, dst: Placement):
        """Stream one whole slot table src -> dst through the window."""
        data = yield from self.win.get(self.table_span, src.rank,
                                       src.table * self.table_span)
        yield from self.win.flush(src.rank)
        raw = np.ascontiguousarray(np.asarray(data)).view(np.uint8)
        yield from self.win.put(raw, dst.rank, dst.table * self.table_span)
        yield from self.win.flush(dst.rank)
        self.migrated_bytes += self.table_span
        self.migrated_slots += self.replicas.slots_per_shard

    def _migrate(self, shard: int):
        """Move the shard's primary table to a colder rank."""
        acceptor = self._pick_acceptor(shard, exclude=set())
        if acceptor is None:
            return
        device = self.win.device
        device._trace("rebalance.migrate.begin", shard=shard,
                      to_rank=acceptor.rank)
        yield from self._quiesce(shard)
        donor = self.replicas.chains[shard][0]
        yield from self._copy_table(donor, acceptor)
        if self.ledger is not None:
            self.ledger.copy_table(shard, donor.rank, shard, acceptor.rank,
                                   self.replicas.slots_per_shard)
        self.replicas.move(shard, 0, acceptor)
        self.replicas.release_table(donor.rank, donor.table)
        self.replicas.thaw(shard)  # the atomic epoch flip
        self.migrations += 1
        device._trace("rebalance.migrate.end", shard=shard,
                      epoch=self.replicas.epoch)

    def _split(self, shard: int):
        """Key-range split: top-bit keys move to a new child chain."""
        depth = len(self.replicas.chains[shard])
        placements: list[Placement] = []
        exclude: set[int] = set()
        for _ in range(depth):
            placement = self._pick_acceptor(shard, exclude)
            if placement is None:
                # Not enough spare capacity for a full-depth child chain:
                # roll back the partial allocation and fall back to a move.
                for p in placements:
                    self.replicas.release_table(p.rank, p.table)
                yield from self._migrate(shard)
                return
            placements.append(placement)
            exclude.add(placement.rank)
        device = self.win.device
        device._trace("rebalance.split.begin", shard=shard)
        yield from self._quiesce(shard)
        parent = self.replicas.chains[shard][0]
        for placement in placements:
            yield from self._copy_table(parent, placement)
        child = self.replicas.add_split(shard, placements)
        if self.ledger is not None:
            for placement in placements:
                self.ledger.copy_table(shard, parent.rank, child,
                                       placement.rank,
                                       self.replicas.slots_per_shard)
        self.replicas.thaw(shard)
        self.splits += 1
        device._trace("rebalance.split.end", shard=shard, child=child,
                      epoch=self.replicas.epoch)
