"""``KvStore``: a key-value store on one-sided communication only.

Servers are *passive*: after creating their window part they never touch
the data plane again.  Every service operation is executed by the client
through the MPI-2 one-sided layer — exactly the paper's argument that
transparent remote memory access makes the target CPU optional.  Every
logical shard is a *chain* of one or more replica tables (head =
primary, see :class:`~repro.svc.shard.ReplicaMap`); an unreplicated
store is a chain of depth 1 and runs the same code.  The full protocol
is ``docs/SERVICE.md``; in short:

* **reads** are seqlock-validated remote gets from the chain head: one
  small direct ``Win.get`` of the whole slot, then a re-read of the
  version word — odd or changed means retry; persistent instability
  falls back to a shared passive-target lock.
* **writes** claim each member's version busy bit head-first with
  ``Win.fetch_and_op(op="bor")`` (exclusive-lock fallback under
  contention), publish value and header words hop by hop, each hop
  acknowledged by a flush, and release the versions in *reverse* chain
  order with accumulates — the head turns readable last.  The
  target-side handler serializes all atomics and every writer claims
  the head first, so claims never race or deadlock.
* **tags** make replay exactly-once: a store with a ``client_id`` stamps
  each write ``(client_id + 1) << 24 | seq`` into a third header word,
  and a replay after a member's death skips members already holding it.
* **counters** are ``Win.accumulate(op="sum")`` increments on the chain
  head — commutative, handler-serialized, exact under any interleaving,
  and not replicated (the drivers allow them at depth 1 only).

Slot layout::

    [0:8)    key-hash word  (``hash_key``; 0 = empty slot)
    [8:16)   version word   (seqlock: odd = write in progress)
    [16:24)  tag word       (tagged stores only: last writer's tag)
    [..)     value bytes    (fixed ``value_size``, 8-byte padded)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..mpi.datatypes.basic import LONG, UNSIGNED_LONG
from ..obs.metrics import Instruments
from .shard import Placement, ReplicaMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..mpi.osc.window import Win
    from .failover import ApplyLedger, FailoverPlan

__all__ = ["KvStore", "ReplInstruments", "SvcInstruments", "KV_COUNTERS",
           "KV_HISTOGRAMS", "KV_INSTANTS", "KV_SPANS", "OPEN_LOOP_COUNTERS",
           "OPEN_LOOP_HISTOGRAMS", "SLOT_HEADER", "TAG_OFF", "slot_bytes"]

#: Bytes of slot metadata every store has: hash word + version word.
SLOT_HEADER = 16
HASH_OFF = 0
VER_OFF = 8
#: The tag word of a tagged store sits between the version and the value.
TAG_OFF = 16

#: Event counters, registered as ``svc.<name>`` by the plain driver and
#: ``repl.<name>`` by the chain driver.
KV_COUNTERS = (
    "reads", "read_misses", "read_retries", "read_fallbacks", "read_giveups",
    "writes", "write_fast", "write_conflicts", "write_fallbacks", "incrs",
    "forwards", "acks", "replays", "replay_skips", "dead_hops", "failovers",
)

#: Latency histograms (same two namespaces).  ``service`` is time from
#: first service to completion, all op kinds (what a closed-loop client
#: sees).
KV_HISTOGRAMS = ("read_latency_us", "write_latency_us", "incr_latency_us",
                 "service_latency_us")

#: The open-loop load generator's instruments (``repl.*`` only: the
#: chain driver is the one with an arrival process).  ``sojourn`` is
#: time from *arrival* to completion — it includes queueing, the tail
#: the closed loop hides.
OPEN_LOOP_COUNTERS = ("arrivals", "shed_ops")
OPEN_LOOP_HISTOGRAMS = ("sojourn_latency_us",)

#: Trace spans (``<ns>.<name>.begin`` / ``.end``) and instant events
#: (``<ns>.<name>``) the store emits under its instruments' namespace.
KV_SPANS = ("get", "put", "incr")
KV_INSTANTS = ("failover", "kill")

#: Seqlock validations of one read before it escalates to a shared lock
#: (and again under that lock before it gives up).
MAX_READ_RETRIES = 4
#: Optimistic busy-bit claims of one write before it takes the
#: exclusive lock.
MAX_CLAIM_RETRIES = 3
#: Retry ``n`` waits ``n * BACKOFF_US`` simulated µs.
BACKOFF_US = 2.0
#: Poll interval of an operation waiting out a frozen shard.
FREEZE_POLL_US = 5.0


def value_offset(tagged: bool) -> int:
    """Header size: 16 bytes, or 24 with the tag word."""
    return SLOT_HEADER + (8 if tagged else 0)


def slot_bytes(value_size: int, tagged: bool = False) -> int:
    """Total slot size: header + value padded to 8-byte word alignment."""
    return value_offset(tagged) + ((value_size + 7) // 8) * 8


class SvcInstruments(Instruments):
    """The ``svc.*`` instruments, shared by every client's store."""

    prefix = "svc"
    owner = "repro.svc.store"
    counter_names = KV_COUNTERS
    histogram_names = KV_HISTOGRAMS


class ReplInstruments(SvcInstruments):
    """The same instruments under the chain driver's ``repl.*`` names,
    plus the open-loop generator's."""

    prefix = "repl"
    owner = "repro.svc.repl"
    counter_names = KV_COUNTERS + OPEN_LOOP_COUNTERS
    histogram_names = KV_HISTOGRAMS + OPEN_LOOP_HISTOGRAMS


def _word(data, offset: int = 0, signed: bool = False) -> int:
    """The 8-byte little-endian word at ``offset`` of a fetched array."""
    raw = np.ascontiguousarray(np.asarray(data)).view(np.uint8)
    return int.from_bytes(raw[offset:offset + 8].tobytes(), "little",
                          signed=signed)


def _as_word(value: int) -> np.ndarray:
    return np.frombuffer(value.to_bytes(8, "little"), dtype=np.uint8)


class KvStore:
    """Client-side handle on the chained slot tables (all DES generators).

    A store given a ``client_id`` is *tagged*: it can name its writes,
    so it uses the 24-byte header and dedupes replays.  ``plan`` and
    ``ledger`` hook the failover model and the exactly-once oracle of
    :mod:`repro.svc.failover` in; ``on_payload`` is told every
    application byte moved.
    """

    def __init__(self, win: "Win", replicas: ReplicaMap, value_size: int,
                 instruments: Optional[SvcInstruments] = None,
                 client_id: Optional[int] = None,
                 plan: Optional["FailoverPlan"] = None,
                 ledger: Optional["ApplyLedger"] = None,
                 on_payload: Optional[Callable[[int], None]] = None):
        if value_size < 1:
            raise ValueError(f"value_size must be >= 1, got {value_size}")
        self.win = win
        self.replicas = replicas
        self.value_size = value_size
        self.tagged = client_id is not None
        self.val_off = value_offset(self.tagged)
        #: Value field padded so every slot word stays 8-byte aligned.
        self.slot_size = slot_bytes(value_size, self.tagged)
        #: Byte stride between consecutive tables in a server's part.
        self.table_span = replicas.slots_per_shard * self.slot_size
        self.m = instruments or (ReplInstruments if self.tagged
                                 else SvcInstruments).standalone()
        self.ns = self.m.prefix
        self.client_id = client_id
        self.plan = plan
        self.ledger = ledger
        self.on_payload = on_payload or (lambda nbytes: None)
        self.engine = win.engine
        self._seq = 0

    # -- shared plumbing ------------------------------------------------------

    def _emit(self, event: str, **detail) -> None:
        self.win.device._trace(f"{self.ns}.{event}", **detail)

    def _slot_base(self, placement: Placement, slot: int) -> int:
        return placement.table * self.table_span + slot * self.slot_size

    def _next_tag(self) -> int:
        """A globally unique write tag: the client's version-vector entry."""
        self._seq += 1
        return ((self.client_id + 1) << 24) | self._seq

    def _resolve(self, key: str):
        """Route ``key``, waiting out any freeze on its shard."""
        waited = False
        while True:
            shard, slot, h = self.replicas.locate(key)
            if not self.replicas.is_frozen(shard):
                if not waited:
                    self.replicas.record(shard)
                return shard, slot, h
            if not waited:
                waited = True
                self.replicas.record(shard)
                self.replicas.blocked_ops += 1
            yield self.engine.timeout(FREEZE_POLL_US)

    def _touch(self, rank: int):
        """Liveness gate before contacting ``rank``.

        Live ranks return True immediately.  On a dead rank the client
        pays the failure-detector timeout, fails the chain over (first
        detector only — reconfiguration is idempotent) and returns
        False so the caller re-resolves under the new epoch.
        """
        if not self.replicas.is_dead(rank):
            return True
        self.m.counters["dead_hops"].inc()
        yield self.engine.timeout(self.plan.detect_cost_us if self.plan
                                  else BACKOFF_US * 8)
        affected = self.replicas.fail_over(rank)
        if affected:
            self.m.counters["failovers"].inc()
            self._emit("failover", victim=rank, shards=len(affected),
                       epoch=self.replicas.epoch)
        return False

    def apply(self, op):
        """Issue one workload :class:`~repro.svc.workload.Op`."""
        if op.kind == "get":
            yield from self.get(op.key)
        elif op.kind == "put":
            yield from self.put(op.key, op.value)
        else:
            yield from self.incr(op.counter_id, op.delta)

    # -- reads ----------------------------------------------------------------

    def get(self, key: str):
        """Seqlock-validated read from the chain head; bytes or ``None``."""
        self.m.counters["reads"].inc()
        self._emit("get.begin", key=key)
        t0 = self.engine.now
        while True:
            shard, slot, h = yield from self._resolve(key)
            epoch0 = self.replicas.begin_op(shard)
            head = self.replicas.chain(shard)[0]
            if not (yield from self._touch(head.rank)):
                self.replicas.end_op(shard, epoch0)
                continue
            value = yield from self._read_slot(
                head.rank, self._slot_base(head, slot), h)
            self.replicas.end_op(shard, epoch0)
            break
        if self.plan:
            self.plan.note_op_done(self.replicas, shard, self.engine.now)
        self.m.histograms["read_latency_us"].observe(self.engine.now - t0)
        self._emit("get.end", key=key, hit=value is not None)
        return value

    def _read_once(self, target: int, base: int, want: int):
        """One seqlock read attempt: (stable, value_or_None)."""
        blob = yield from self.win.get(self.slot_size, target, base)
        yield from self.win.flush(target)  # a get's bytes are defined after it
        self.on_payload(self.slot_size)
        # One byte view for all three fields (``_word`` would re-wrap the
        # fetched array per word on this, the hottest path).
        raw = np.ascontiguousarray(np.asarray(blob)).view(np.uint8)
        v1 = int.from_bytes(raw[VER_OFF:VER_OFF + 8].tobytes(), "little")
        if v1 & 1:  # write in progress
            return False, None
        ver = yield from self.win.get(8, target, base + VER_OFF)
        yield from self.win.flush(target)
        if _word(ver) != v1:  # slot changed underneath the read
            return False, None
        stored = int.from_bytes(raw[HASH_OFF:HASH_OFF + 8].tobytes(), "little")
        if stored != want:  # empty slot, or another key hashed here
            return True, None
        return True, bytes(raw[self.val_off:self.val_off + self.value_size])

    def _read_slot(self, target: int, base: int, want: int):
        for attempt in range(MAX_READ_RETRIES):
            stable, value = yield from self._read_once(target, base, want)
            if stable:
                if value is None:
                    self.m.counters["read_misses"].inc()
                return value
            self.m.counters["read_retries"].inc()
            yield self.engine.timeout(BACKOFF_US * (attempt + 1))
        # Persistently unstable slot: read under a shared passive-target
        # lock.  Lock-free fast-path writers may still bump the version,
        # so validation stays bounded; a slot unstable even here is
        # counted as a give-up and reported as a miss.
        self.m.counters["read_fallbacks"].inc()
        yield from self.win.lock(target, exclusive=False)
        value = None
        for attempt in range(MAX_READ_RETRIES):
            stable, value = yield from self._read_once(target, base, want)
            if stable:
                break
            yield self.engine.timeout(BACKOFF_US * (attempt + 1))
        else:
            self.m.counters["read_giveups"].inc()
        yield from self.win.unlock(target)
        return value

    # -- writes ---------------------------------------------------------------

    def put(self, key: str, value: bytes):
        """Publish ``value`` under ``key`` through the shard's chain."""
        if len(value) != self.value_size:
            raise ValueError(
                f"value must be exactly {self.value_size} B, got {len(value)}"
            )
        self.m.counters["writes"].inc()
        self._emit("put.begin", key=key)
        t0 = self.engine.now
        tag = self._next_tag() if self.tagged else None
        attempt = 0
        while True:
            shard, slot, h = yield from self._resolve(key)
            epoch0 = self.replicas.begin_op(shard)
            done = yield from self._chain_write(shard, slot, h, tag, value)
            self.replicas.end_op(shard, epoch0)
            if done:
                break
            # A chain member died underneath this write: replay it
            # through the failed-over chain.  The tag dedupes any hop
            # that already applied, so the replay is exactly-once.
            attempt += 1
            self.m.counters["replays"].inc()
        if self.plan:
            killed = self.plan.note_write(self.replicas, self.engine.now)
            if killed is not None:
                self._emit("kill", victim=killed,
                           after_writes=self.plan.applies)
            self.plan.note_op_done(self.replicas, shard, self.engine.now)
        self.m.histograms["write_latency_us"].observe(self.engine.now - t0)
        self._emit("put.end", key=key, attempts=attempt + 1)
        return True

    def _chain_write(self, shard: int, slot: int, h: int,
                     tag: Optional[int], value: bytes):
        """One pass down the chain; False = a member died, replay."""
        claimed: list[tuple[int, int]] = []
        fast = True
        for hop, placement in enumerate(self.replicas.chain(shard)):
            target, base = placement.rank, self._slot_base(placement, slot)
            if not (yield from self._touch(target)):
                # Late death detection: release whatever we already
                # claimed (those hops keep their published data; the
                # replay will dedupe on the tag) and signal a replay.
                yield from self._release(claimed)
                return False
            fast &= (yield from self._claim(target, base))
            claimed.append((target, base))
            applied = False
            if tag is not None:
                current = yield from self.win.get(8, target, base + TAG_OFF)
                yield from self.win.flush(target)
                applied = _word(current) == tag
            if applied:
                self.m.counters["replay_skips"].inc()
            else:
                yield from self._publish(target, base, h, tag, value)
                if self.ledger is not None:
                    self.ledger.record(shard, slot, target, tag)
            if hop > 0:
                self.m.counters["forwards"].inc()
            # The flush inside _publish / the tag read is this hop's
            # versioned ack: the data is durable on the member before
            # the next hop starts.
            self.m.counters["acks"].inc()
        yield from self._release(claimed)
        if fast:
            self.m.counters["write_fast"].inc()
        return True

    def _claim(self, target: int, base: int):
        """Own the member's seqlock busy bit; True iff won optimistically.

        Chain members are always claimed head-first, so slot claims are
        acquired in one global order and cannot deadlock.  A contended
        slot serializes the claim behind an exclusive passive-target
        lock; the claim loop remains (fast-path writers do not take the
        lock) but is now guaranteed to drain.
        """
        for attempt in range(MAX_CLAIM_RETRIES):
            if (yield from self._try_claim(target, base)):
                return True
            self.m.counters["write_conflicts"].inc()
            yield self.engine.timeout(BACKOFF_US * (attempt + 1))
        self.m.counters["write_fallbacks"].inc()
        yield from self.win.lock(target, exclusive=True)
        while not (yield from self._try_claim(target, base)):
            yield self.engine.timeout(BACKOFF_US)
        yield from self.win.unlock(target)
        return False

    def _try_claim(self, target: int, base: int):
        """Set the version busy bit; True iff the previous value was even."""
        prev = yield from self.win.fetch_and_op(
            np.array([1], dtype=np.uint64), target, base + VER_OFF,
            op="bor", datatype=UNSIGNED_LONG,
        )
        return _word(prev) % 2 == 0

    def _publish(self, target: int, base: int, h: int, tag: Optional[int],
                 value: bytes):
        """Write value (+ tag) + hash into a claimed member slot (no
        release — the seqlock stays held until the whole chain acked)."""
        payload = np.frombuffer(value, dtype=np.uint8)
        yield from self.win.put(payload, target, base + self.val_off)
        if tag is not None:
            yield from self.win.put(_as_word(tag), target, base + TAG_OFF)
        yield from self.win.put(_as_word(h), target, base + HASH_OFF)
        # The data stores must be globally visible before the version
        # release makes them readable (seqlock publication order).
        yield from self.win.flush(target)
        self.on_payload(len(value) + self.val_off - VER_OFF)

    def _release(self, claimed: list[tuple[int, int]]):
        """Release held seqlocks in reverse chain order: the primary —
        the read target — becomes readable last, after every backup
        already holds the write."""
        for target, base in reversed(claimed):
            if self.replicas.is_dead(target):
                continue  # the member is gone; nothing to release
            yield from self.win.accumulate(
                np.array([1], dtype=np.uint64), target, base + VER_OFF,
                op="sum", datatype=UNSIGNED_LONG,
            )
            yield from self.win.flush(target)

    # -- counters -------------------------------------------------------------

    def _counter_addr(self, counter_id: int) -> tuple[int, int]:
        """(target rank, value displacement) of a counter on its head."""
        shard, slot = self.replicas.locate_counter(counter_id)
        self.replicas.record(shard)
        head = self.replicas.chain(shard)[0]
        return head.rank, self._slot_base(head, slot) + self.val_off

    def incr(self, counter_id: int, delta: int = 1):
        """Add ``delta`` to an integer counter (handler-serialized, exact)."""
        target, disp = self._counter_addr(counter_id)
        self.m.counters["incrs"].inc()
        self._emit("incr.begin", counter=counter_id, target=target)
        t0 = self.engine.now
        yield from self.win.accumulate(
            np.array([delta], dtype=np.int64), target, disp,
            op="sum", datatype=LONG,
        )
        yield from self.win.flush(target)
        self.m.histograms["incr_latency_us"].observe(self.engine.now - t0)
        self._emit("incr.end", counter=counter_id)

    def get_counter(self, counter_id: int):
        """Read a counter's current value (quiescent reads are exact)."""
        target, disp = self._counter_addr(counter_id)
        data = yield from self.win.get(8, target, disp)
        yield from self.win.flush(target)
        return _word(data, signed=True)

    def check_counters(self, expected: dict[int, int]):
        """Read every counter of ``expected`` back under a shared
        passive-target lock; returns the mismatches (the replay oracle's
        verdict — run it once, after the workload quiesced)."""
        mismatches: list[dict] = []
        for counter_id in sorted(expected):
            shard, _ = self.replicas.locate_counter(counter_id)
            target = self.replicas.chain(shard)[0].rank
            yield from self.win.lock(target, exclusive=False)
            actual = yield from self.get_counter(counter_id)
            yield from self.win.unlock(target)
            if actual != expected[counter_id]:
                mismatches.append({
                    "counter": counter_id,
                    "expected": expected[counter_id],
                    "actual": actual,
                })
        return mismatches
