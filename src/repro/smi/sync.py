"""SMI synchronization: shared-memory spinlocks and barriers.

The paper (Sec. 4.2) performs the mutual exclusion required for MPI-2
passive/active target synchronization "via shared memory locks and
barriers, using techniques described in [14]" (Schulz, SCI Europe 2000),
noting they give "very low latency for scenarios with little contention"
while contended access patterns should be avoided.

The cost model here reflects that characterisation:

* acquiring a free lock costs one remote read (test) + one remote write
  (set) when the lock's home is on another node, or two cache-speed
  accesses when local;
* a contended lock is granted FIFO, and each hand-over adds the release
  write plus the spinning reader's polling latency;
* a barrier costs each rank a flag write to the home region plus the
  detection latency at the last arriver, then a release wave.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..sim import Broadcast, Event, Lock
from .regions import SMIContext, SMIError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    pass

__all__ = ["SMILock", "SMIRWLock", "SMIBarrier", "LOCAL_ACCESS_COST",
           "POLL_INTERVAL"]

#: Cost of one cache-coherent local lock access (test or set).
LOCAL_ACCESS_COST: float = 0.05
#: How often a spinning process re-polls a remote flag.
POLL_INTERVAL: float = 1.0


class SMILock:
    """A spinlock living in the shared region of its home rank."""

    def __init__(self, context: SMIContext, home_rank: int, name: str = ""):
        self.context = context
        self.home_rank = home_rank
        self.name = name or f"smilock@r{home_rank}"
        self._lock = Lock(context.engine, name=self.name)
        #: number of acquisitions that found the lock held (contention stat).
        self.contended_acquires = 0

    def _access_cost(self, rank: int) -> float:
        """Cost of one lock-word access (read or write) from ``rank``."""
        if self.context.same_node(rank, self.home_rank):
            return LOCAL_ACCESS_COST
        params = self.context.node_of(rank).params
        return params.adapter.read_roundtrip

    def acquire(self, rank: int):
        """DES generator: acquire the lock for ``rank``."""
        eng = self.context.engine
        cost = self._access_cost(rank)
        # Test (read the lock word) ...
        yield eng.timeout(cost)
        if self._lock.locked:
            self.contended_acquires += 1
            yield self._lock.request()
            # Spinning: we notice the release only at the next poll.
            yield eng.timeout(POLL_INTERVAL if not self.context.same_node(
                rank, self.home_rank) else LOCAL_ACCESS_COST)
        else:
            yield self._lock.request()
        # ... and set (write the lock word).
        yield eng.timeout(cost)

    def release(self, rank: int):
        """DES generator: release the lock."""
        yield self.context.engine.timeout(self._access_cost(rank))
        self._lock.release()

    @property
    def locked(self) -> bool:
        return self._lock.locked


class SMIRWLock:
    """A reader–writer spinlock in the shared region of its home rank.

    MPI-2 passive-target synchronization distinguishes shared and
    exclusive access epochs; the paper's SMI spinlocks serialize both.
    This lock keeps the spinlock cost model (test + set word accesses,
    polling latency on a contended hand-over) but lets any number of
    *shared* holders proceed concurrently.

    Exclusive acquisition is starvation-free: requests are granted in
    strict FIFO order, so a reader arriving after a waiting writer queues
    behind it instead of joining the active reader group (no reader
    convoy can overtake a writer).  A release hands the lock to the
    queue head — either one writer, or the whole run of consecutive
    readers at the front.
    """

    def __init__(self, context: SMIContext, home_rank: int, name: str = ""):
        self.context = context
        self.home_rank = home_rank
        self.name = name or f"smirwlock@r{home_rank}"
        self._readers = 0
        self._writer = False
        #: FIFO of blocked requests: ("s" | "x", grant event).
        self._queue: deque[tuple[str, Event]] = deque()
        #: acquisitions that found the lock held (contention stat).
        self.contended_acquires = 0
        #: grants by mode, and the high-water mark of concurrent readers.
        self.shared_grants = 0
        self.exclusive_grants = 0
        self.max_concurrent_shared = 0

    def _access_cost(self, rank: int) -> float:
        if self.context.same_node(rank, self.home_rank):
            return LOCAL_ACCESS_COST
        return self.context.node_of(rank).params.adapter.read_roundtrip

    def _grant(self, exclusive: bool) -> None:
        if exclusive:
            self._writer = True
            self.exclusive_grants += 1
        else:
            self._readers += 1
            self.shared_grants += 1
            self.max_concurrent_shared = max(self.max_concurrent_shared,
                                             self._readers)

    def acquire(self, rank: int, exclusive: bool = True):
        """DES generator: acquire in shared or exclusive mode."""
        eng = self.context.engine
        cost = self._access_cost(rank)
        # Test (read the lock word) ...
        yield eng.timeout(cost)
        if exclusive:
            free = (not self._writer and self._readers == 0
                    and not self._queue)
        else:
            # Readers join only while no writer holds *or waits for* the
            # lock (a non-empty queue always has a writer at or before
            # its head — that is the starvation-freedom rule).
            free = not self._writer and not self._queue
        if free:
            self._grant(exclusive)
        else:
            self.contended_acquires += 1
            ev = Event(eng, name=f"{self.name}:{'x' if exclusive else 's'}")
            self._queue.append(("x" if exclusive else "s", ev))
            yield ev
            # Spinning: the hand-over is noticed at the next poll.
            yield eng.timeout(
                LOCAL_ACCESS_COST
                if self.context.same_node(rank, self.home_rank)
                else POLL_INTERVAL
            )
        # ... and set (write the lock word).
        yield eng.timeout(cost)

    def release(self, rank: int, exclusive: bool = True):
        """DES generator: release a shared or exclusive hold."""
        yield self.context.engine.timeout(self._access_cost(rank))
        if exclusive:
            if not self._writer:
                raise SMIError(f"{self.name}: exclusive release without hold")
            self._writer = False
        else:
            if self._readers <= 0:
                raise SMIError(f"{self.name}: shared release without hold")
            self._readers -= 1
        self._wake()

    def _wake(self) -> None:
        """Grant the queue head: one writer, or the leading reader run."""
        if self._writer or not self._queue:
            return
        if self._queue[0][0] == "x":
            if self._readers == 0:
                _, ev = self._queue.popleft()
                self._grant(True)
                ev.succeed()
            return
        while self._queue and self._queue[0][0] == "s":
            _, ev = self._queue.popleft()
            self._grant(False)
            ev.succeed()

    @property
    def locked(self) -> bool:
        return self._writer or self._readers > 0

    @property
    def readers(self) -> int:
        return self._readers


class SMIBarrier:
    """A reusable barrier over a fixed set of ranks.

    Implemented the SMI way: each rank sets its arrival flag in the home
    region; the last arriver flips the release flag, which the spinners
    observe after their polling latency.
    """

    def __init__(self, context: SMIContext, ranks: list[int], home_rank: int | None = None):
        if not ranks:
            raise SMIError("barrier needs at least one rank")
        self.context = context
        self.ranks = list(ranks)
        self.home_rank = home_rank if home_rank is not None else ranks[0]
        self._arrived = 0
        self._generation = 0
        self._release = Broadcast(context.engine, name="smibarrier")

    def _flag_cost(self, rank: int) -> float:
        if self.context.same_node(rank, self.home_rank):
            return LOCAL_ACCESS_COST
        # Posted remote write of the arrival flag + barrier to ensure it
        # lands: approximated by one hop + store-barrier fraction.
        params = self.context.node_of(rank).params
        return params.adapter.pio_op_overhead + params.link.hop_latency * 2

    def enter(self, rank: int):
        """DES generator: enter the barrier; returns when all ranks arrived."""
        if rank not in self.ranks:
            raise SMIError(f"rank {rank} is not part of this barrier")
        eng = self.context.engine
        yield eng.timeout(self._flag_cost(rank))
        self._arrived += 1
        if self._arrived == len(self.ranks):
            # Last arriver releases everyone and re-arms the barrier.
            self._arrived = 0
            self._generation += 1
            release, self._release = self._release, Broadcast(eng, name="smibarrier")
            release.fire(self._generation)
        else:
            release = self._release
            yield release.wait()
            # Spinners notice the release flag at their next poll.
            if self.context.same_node(rank, self.home_rank):
                yield eng.timeout(LOCAL_ACCESS_COST)
            else:
                yield eng.timeout(POLL_INTERVAL)
