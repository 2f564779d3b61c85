"""What a chain deeper than 1 adds to the store: rank loss and its oracle.

* :class:`FailoverPlan` models the failure: after a fixed number of
  completed chain writes the victim group's primary is marked dead.  The
  next client op that routes to it pays ``detect_cost_us``, fails the
  chain over (the backup is promoted) and replays its in-flight write
  through the survivors.  Kill to first completed op on the group is
  the *availability gap* (``repl.failover_gap_us``).
* :class:`ApplyLedger` mirrors every tagged apply host-side — the
  driver's exactly-once oracle: no tag applied twice to any replica,
  live chain members agree per slot, physical tag words match the tail.

See ``docs/REPLICATION.md`` for the failover timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .shard import ReplicaMap

__all__ = ["ApplyLedger", "FailoverPlan"]


@dataclass
class FailoverPlan:
    """A deterministic, seed-stable primary kill.

    The kill fires when the ``kill_after_writes``-th chain write
    completes (counted across all clients), killing the *current
    primary* of ``kill_group``'s base shard.  Firing on an apply count
    rather than a wall-clock time keeps the cell byte-deterministic
    under any timing change.  ``detect_cost_us`` is the failure-detector
    timeout a client pays on first contact with the dead rank.
    """

    kill_group: int = 0
    kill_after_writes: int = 20
    detect_cost_us: float = 40.0
    # -- recorded during the run ----------------------------------------------
    applies: int = field(default=0, repr=False)
    kill_rank: Optional[int] = field(default=None, repr=False)
    kill_time: Optional[float] = field(default=None, repr=False)
    recover_time: Optional[float] = field(default=None, repr=False)

    def describe(self) -> dict:
        return {
            "kill_group": self.kill_group,
            "kill_after_writes": self.kill_after_writes,
            "detect_cost_us": self.detect_cost_us,
        }

    def note_write(self, replicas: ReplicaMap, now: float) -> Optional[int]:
        """Count one completed chain write; returns the rank just killed
        (exactly once), else None."""
        self.applies += 1
        if self.kill_time is not None or self.applies < self.kill_after_writes:
            return None
        victim = replicas.chain(self.kill_group)[0].rank
        replicas.mark_dead(victim)
        self.kill_rank = victim
        self.kill_time = now
        return victim

    def note_op_done(self, replicas: ReplicaMap, shard: int,
                     now: float) -> None:
        """First completed op on the affected group *after* the dead rank
        was routed out closes the availability gap."""
        if (self.kill_time is None or self.recover_time is not None
                or replicas.group[shard] != self.kill_group
                or self.kill_rank not in replicas.routed_out):
            return
        self.recover_time = now

    def gap_us(self, end_time: float) -> float:
        """The availability gap (0 before the kill; open gaps run to
        ``end_time``)."""
        if self.kill_time is None:
            return 0.0
        end = self.recover_time if self.recover_time is not None else end_time
        return max(0.0, end - self.kill_time)


class ApplyLedger:
    """Host-side version-vector oracle: every apply, per replica.

    ``record`` appends the tag a client just published to one replica's
    (shard, slot); ``copy_table`` mirrors what a migration/split copy
    does to the physical tables.  :meth:`check` is the exactly-once
    verdict the driver reports.
    """

    def __init__(self):
        #: (shard, slot) -> rank -> [tags in apply order]
        self.applies: dict[tuple[int, int], dict[int, list[int]]] = {}

    def record(self, shard: int, slot: int, rank: int, tag: int) -> None:
        self.applies.setdefault((shard, slot), {}).setdefault(
            rank, []).append(tag)

    def copy_table(self, shard: int, from_rank: int, to_shard: int,
                   to_rank: int, slots: int) -> None:
        """Mirror a whole-table copy: the destination replica inherits
        the source's per-slot apply history (its physical tag words are
        now byte-identical to the source's)."""
        for slot in range(slots):
            source = self.applies.get((shard, slot), {}).get(from_rank)
            if source:
                dest = self.applies.setdefault((to_shard, slot), {})
                dest[to_rank] = list(source)

    def check(self, replicas: ReplicaMap) -> dict:
        """Exactly-once + chain-agreement verdict over live replicas.

        * ``duplicates`` — a tag applied twice to the same replica slot
          (a replay that failed to dedupe);
        * ``disagreements`` — two live members of a chain whose per-slot
          apply sequences differ (a write that skipped a replica).
        """
        duplicates: list[dict] = []
        disagreements: list[dict] = []
        for (shard, slot), by_rank in sorted(self.applies.items()):
            live = {rank: tags for rank, tags in by_rank.items()
                    if rank not in replicas.dead}
            for rank in sorted(live):
                tags = live[rank]
                if len(tags) != len(set(tags)):
                    duplicates.append(
                        {"shard": shard, "slot": slot, "rank": rank})
            chain_ranks = [p.rank for p in replicas.live_chain(shard)]
            sequences = [tuple(live.get(rank, ())) for rank in chain_ranks
                         if rank in live]
            if len(set(sequences)) > 1:
                disagreements.append({"shard": shard, "slot": slot,
                                      "ranks": chain_ranks})
        return {
            "ok": not duplicates and not disagreements,
            "duplicates": duplicates,
            "disagreements": disagreements,
            "slots_applied": len(self.applies),
        }
