"""Placement for the RMA key-value service: key -> shard -> replica chain.

A :class:`ReplicaMap` spreads slot tables across the window parts of the
server ranks.  Every logical shard is served by a *chain* of one or more
tables on distinct ranks (head = primary); an unreplicated service is the
same map with chains of length 1.  Placement must be *deterministic
across runs and processes* — Python's built-in ``hash`` is salted per
process, so keys are placed with :func:`mix64` (the splitmix64
finalizer), a fast 64-bit avalanche with measurably uniform low and high
bits.

Each slot table reserves its first ``counter_slots`` slots for integer
counters (addressed directly by counter id, no hashing, so the driver
can verify exact final values) and hashes blob keys into the remaining
slots.  The map also keeps per-shard op tallies — the
``svc.shard_ops`` / ``svc.hot_shards`` / ``svc.shard_imbalance`` metrics
and the rebalancer's hot-shard evidence are pulled from here.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Placement", "ReplicaMap", "hash_key", "hot_shard_indices",
           "mix64"]

_MASK = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finalizer: a deterministic 64-bit avalanche."""
    x &= _MASK
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def hash_key(key: str) -> int:
    """Nonzero 64-bit hash of ``key``, stable across runs and processes.

    The slot protocol reserves hash word 0 for "empty slot", so a key
    that lands on 0 is nudged to 1.
    """
    h = 0xCBF29CE484222325  # FNV-1a offset basis
    for byte in key.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    h = mix64(h)
    return h if h != 0 else 1


def hot_shard_indices(op_counts: list[int], hot_factor: float,
                      min_total: int | None = None) -> list[int]:
    """Shards whose op count exceeds ``hot_factor`` x the per-shard mean.

    The degenerate cases are explicit (they used to flag inconsistently):

    * ``total == 0`` — no traffic means no hot shard, never "all shards
      hot because every count exceeds a zero threshold".
    * a single shard — the mean *is* its count, so with one shard the
      threshold question is meaningless; never flag it.
    * uniform tiny loads — with only a handful of ops the ratio test is
      pure noise (e.g. ``[1, 0]`` flags shard 0 at 2x the mean after a
      single op).  Below ``min_total`` ops (default: one per shard) no
      shard is flagged; the rebalancer therefore never reacts to the
      first few requests of a run.
    """
    n = len(op_counts)
    total = sum(op_counts)
    if n < 2 or total == 0:
        return []
    if min_total is None:
        min_total = n
    if total < min_total:
        return []
    threshold = hot_factor * total / n
    return [s for s, count in enumerate(op_counts) if count > threshold]


@dataclass(frozen=True)
class Placement:
    """One replica's physical home: a slot table on a server rank."""

    rank: int
    table: int


class ReplicaMap:
    """Shard -> replica-chain placement, plus epoch and load accounting.

    The map is the host-side routing/configuration service every client
    consults (stand-in for etcd/ZooKeeper — its updates are atomic
    host-side mutations, which is exactly the "config flip" a real
    service would read from a coordination service).  Routing decisions:

    * a key hashes to a *base* shard (``h % n_base_shards``); if that
      shard has been range-split, keys whose hash has the top bit set
      route to the split child instead — deterministic, so both halves
      of a split stay addressable without rehashing the survivors;
    * counter ids map round-robin onto the base shards' counter slots;
    * a shard's chain is its live placements in order (head = primary);
    * ``epoch`` increments on every routing change (failover, migration
      epoch flip, split commit).  In-flight ops that complete under an
      older epoch than the current one are counted as *drained*
      (``rebalance.drained_ops``) — the draining rule that makes epoch
      flips safe is enforced by :class:`~repro.svc.rebalance.Rebalancer`
      freezing the shard first.
    """

    def __init__(self, group_ranks: list[list[int]], slots_per_shard: int,
                 counter_slots: int = 0, tables_per_server: int = 2,
                 hot_factor: float = 2.0):
        if not group_ranks:
            raise ValueError("need at least one replica group")
        for chain in group_ranks:
            if not chain:
                raise ValueError("every replica group needs >= 1 rank")
            if len(set(chain)) != len(chain):
                raise ValueError(f"duplicate rank in chain {chain}")
        if not 0 <= counter_slots < slots_per_shard:
            raise ValueError(
                f"counter_slots ({counter_slots}) must be >= 0 and leave "
                f"blob slots (slots_per_shard={slots_per_shard})"
            )
        if tables_per_server < 1:
            raise ValueError("tables_per_server must be >= 1")
        if hot_factor <= 1.0:
            raise ValueError(f"hot_factor must exceed 1.0, got {hot_factor}")
        self.slots_per_shard = slots_per_shard
        self.counter_slots = counter_slots
        self.tables_per_server = tables_per_server
        self.hot_factor = hot_factor
        self.server_ranks = sorted({r for chain in group_ranks for r in chain})
        self._free: dict[int, list[int]] = {
            rank: list(range(tables_per_server - 1, -1, -1))
            for rank in self.server_ranks
        }
        self.chains: list[list[Placement]] = [
            [Placement(rank, self.take_table(rank)) for rank in chain]
            for chain in group_ranks
        ]
        self.n_base_shards = len(self.chains)
        #: shard -> replica group (split children inherit the parent's).
        self.group = list(range(len(self.chains)))
        self.split_child: dict[int, int] = {}
        self.split_parent: dict[int, int] = {}
        self.dead: set[int] = set()
        self.routed_out: set[int] = set()
        self.epoch = 0
        self.frozen: set[int] = set()
        self.inflight = [0] * len(self.chains)
        #: Ops routed to each shard (fed to the shard-load collectors).
        self.op_counts = [0] * len(self.chains)
        # Rebalance/availability accounting (pulled by the collectors).
        self.epoch_flips = 0
        self.blocked_ops = 0
        self.drained_ops = 0

    # -- table allocation -----------------------------------------------------

    def take_table(self, rank: int) -> int:
        free = self._free[rank]
        if not free:
            raise ValueError(f"rank {rank} has no free slot table")
        return free.pop()

    def release_table(self, rank: int, table: int) -> None:
        self._free[rank].append(table)

    def free_tables(self, rank: int) -> int:
        return len(self._free[rank])

    # -- routing --------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.chains)

    @property
    def max_counter_keys(self) -> int:
        """Counter ids [0, this) map to distinct slots (no aliasing)."""
        return self.counter_slots * self.n_base_shards

    def locate(self, key: str) -> tuple[int, int, int]:
        """(shard, slot, hash) of a blob key under the current epoch.

        Shard from the hash's low bits, slot from its high bits — the two
        decisions stay independent, so all of a shard's blob slots are
        reachable whatever the shard count.
        """
        h = hash_key(key)
        shard = h % self.n_base_shards
        if shard in self.split_child and (h >> 63) & 1:
            shard = self.split_child[shard]
        blob_slots = self.slots_per_shard - self.counter_slots
        slot = self.counter_slots + (h >> 20) % blob_slots
        return shard, slot, h

    def locate_counter(self, counter_id: int) -> tuple[int, int]:
        """The (shard, slot) of an integer counter (round-robin, exact)."""
        if counter_id < 0:
            raise ValueError(f"negative counter id {counter_id}")
        if self.counter_slots == 0:
            raise ValueError("this map reserves no counter slots")
        shard = counter_id % self.n_base_shards
        slot = (counter_id // self.n_base_shards) % self.counter_slots
        return shard, slot

    def chain(self, shard: int) -> list[Placement]:
        """The *routing* chain of ``shard`` (head = primary).

        Deliberately not filtered by ``dead``: a silent death keeps
        receiving routes until some client detects it and calls
        :meth:`fail_over` — the window between the two is the
        availability gap.
        """
        return list(self.chains[shard])

    def live_chain(self, shard: int) -> list[Placement]:
        """The chain members still alive (the verification view)."""
        return [p for p in self.chains[shard] if p.rank not in self.dead]

    def chain_depth(self) -> int:
        """Shortest live chain across shards (the redundancy floor)."""
        return min(len(self.live_chain(s)) for s in range(self.n_shards))

    def is_dead(self, rank: int) -> bool:
        return rank in self.dead

    def mark_dead(self, rank: int) -> None:
        """The failure itself: the rank stops serving, silently.

        Routing still points at it until a client *detects* the death
        and calls :meth:`fail_over` — the window between the two is the
        availability gap the driver measures.
        """
        self.dead.add(rank)

    def fail_over(self, rank: int) -> list[int]:
        """Drop ``rank`` from every chain, promote backups, bump epoch.

        Idempotent per rank: only the first detection reconfigures; late
        detectors see an empty affected list (and count no failover).
        Returns the shards whose chain changed.
        """
        if rank in self.routed_out:
            return []
        self.routed_out.add(rank)
        affected = []
        for shard, chain in enumerate(self.chains):
            kept = [p for p in chain if p.rank != rank]
            if len(kept) == len(chain):
                continue
            if not kept:
                raise RuntimeError(
                    f"shard {shard} lost its last replica (rank {rank})")
            self.chains[shard] = kept
            affected.append(shard)
        self.epoch += 1
        return affected

    # -- epoch / freeze / drain bookkeeping -----------------------------------

    def is_frozen(self, shard: int) -> bool:
        return shard in self.frozen

    def freeze(self, shard: int) -> None:
        self.frozen.add(shard)

    def thaw(self, shard: int) -> None:
        """Unfreeze after a migration/split copy: the atomic epoch flip."""
        self.frozen.discard(shard)
        self.epoch += 1
        self.epoch_flips += 1

    def begin_op(self, shard: int) -> int:
        self.inflight[shard] += 1
        return self.epoch

    def end_op(self, shard: int, epoch0: int) -> None:
        self.inflight[shard] -= 1
        if self.epoch != epoch0:
            # The routing epoch moved underneath this op (failover
            # mid-flight) — it completed against a superseded epoch.
            self.drained_ops += 1

    # -- reconfiguration (rebalancer-driven) ----------------------------------

    def move(self, shard: int, position: int, placement: Placement) -> None:
        self.chains[shard][position] = placement

    def add_split(self, base: int, placements: list[Placement]) -> int:
        """Commit a key-range split of ``base``; returns the child shard."""
        if base in self.split_child or base in self.split_parent:
            raise ValueError(f"shard {base} is already split")
        child = len(self.chains)
        self.chains.append(list(placements))
        self.group.append(self.group[base])
        self.inflight.append(0)
        self.op_counts.append(0)
        self.split_child[base] = child
        self.split_parent[child] = base
        return child

    # -- load accounting (pulled by the metrics collectors) -------------------

    def record(self, shard: int) -> None:
        self.op_counts[shard] += 1

    def total_ops(self) -> int:
        return sum(self.op_counts)

    def imbalance(self) -> float:
        """Hottest shard's ops over the per-shard mean (1.0 = balanced)."""
        total = sum(self.op_counts)
        if total == 0:
            return 0.0
        return max(self.op_counts) * len(self.op_counts) / total

    def hot_shards(self) -> list[int]:
        """Shards whose op count exceeds ``hot_factor`` x the mean (see
        :func:`hot_shard_indices` for the degenerate cases)."""
        return hot_shard_indices(self.op_counts, self.hot_factor)

    def rank_load(self, rank: int) -> int:
        """Ops routed to shards this rank serves (acceptor choice input)."""
        return sum(self.op_counts[s] for s, chain in enumerate(self.chains)
                   if any(p.rank == rank for p in chain))
