"""The one placement map and the one store protocol (repro.svc).

An unreplicated store is a chain of depth 1, so every protocol behaviour
is checked once, parametrised over chain depth: ``depth1`` is what
``run_service`` builds (untagged slots, ``svc.*`` instruments),
``depth2`` what ``run_replicated_service`` builds (tagged slots,
``repl.*`` instruments, an :class:`ApplyLedger` attached).  The
placement tests cover what used to be two maps: the counter-slot region
and blob hashing of the plain service, and the chain routing, failover,
split and epoch bookkeeping of the replicated one.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.svc import (ApplyLedger, KvStore, Placement, ReplicaMap,
                       ReplInstruments, SvcInstruments, hash_key,
                       hot_shard_indices, mix64, slot_bytes)

VALUE_SIZE = 16


def fill(byte: int) -> bytes:
    return bytes([byte]) * VALUE_SIZE


def flat_map(n_servers, slots_per_shard, **kw):
    """The plain service's map: every shard a chain of one server."""
    return ReplicaMap([[rank] for rank in range(n_servers)],
                      slots_per_shard, tables_per_server=1, **kw)


# -- placement ------------------------------------------------------------------


class TestPlacement:
    def make(self, **kw):
        return ReplicaMap([[0, 1], [2, 3]], slots_per_shard=8, **kw)

    def test_hash_is_stable_and_nonzero(self):
        assert hash_key("alpha") == hash_key("alpha")
        assert hash_key("alpha") != hash_key("beta")
        for i in range(200):
            assert hash_key(f"k{i}") != 0

    def test_mix64_avalanche(self):
        # Neighbouring inputs land far apart (no low-bit clustering).
        outs = {mix64(i) & 0xFF for i in range(64)}
        assert len(outs) > 40

    def test_slot_layout(self):
        # One function, two header variants: 16 B, or 24 B with the tag.
        assert [slot_bytes(n) for n in (1, 8, 9, 64)] == [24, 24, 32, 80]
        assert [slot_bytes(n, tagged=True) for n in (1, 8, 9)] == [32, 32, 40]

    def test_blob_placement_in_bounds(self):
        shards = flat_map(3, slots_per_shard=16, counter_slots=4)
        for i in range(300):
            shard, slot, h = shards.locate(f"key-{i}")
            assert h == hash_key(f"key-{i}")
            assert 0 <= shard < 3
            assert 4 <= slot < 16  # never a counter slot

    def test_routing_is_stable_and_in_range(self):
        rm = self.make()
        for key in ("a", "b", "k17", "x" * 40):
            shard, slot, h = rm.locate(key)
            assert (shard, slot, h) == rm.locate(key)
            assert 0 <= shard < rm.n_shards
            assert 0 <= slot < rm.slots_per_shard

    def test_counter_placement_exact_and_disjoint(self):
        shards = flat_map(2, slots_per_shard=8, counter_slots=3)
        assert shards.max_counter_keys == 6
        seen = set()
        for cid in range(shards.max_counter_keys):
            loc = shards.locate_counter(cid)
            assert loc not in seen  # no aliasing below the cap
            seen.add(loc)
            assert loc[1] < 3

    def test_map_without_counter_slots_serves_no_counters(self):
        rm = self.make()
        assert rm.max_counter_keys == 0
        with pytest.raises(ValueError, match="no counter slots"):
            rm.locate_counter(0)

    def test_load_accounting(self):
        shards = flat_map(2, slots_per_shard=8, counter_slots=2,
                          hot_factor=1.5)
        assert shards.imbalance() == 0.0 and shards.hot_shards() == []
        for _ in range(9):
            shards.record(0)
        shards.record(1)
        assert shards.total_ops() == 10
        assert shards.imbalance() == pytest.approx(1.8)
        assert shards.hot_shards() == [0]

    def test_hot_shard_degenerate_cases(self):
        """The module-level helper must stay quiet on inputs where
        "hot" is meaningless: a single shard, no traffic at all, or so
        little traffic that one op can tip the threshold."""
        assert hot_shard_indices([], 1.5) == []
        assert hot_shard_indices([7], 1.5) == []          # n < 2
        assert hot_shard_indices([0, 0], 1.5) == []       # no traffic
        assert hot_shard_indices([1, 0], 1.5) == []       # below min_total
        assert hot_shard_indices([1, 0], 1.5, min_total=1) == [0]
        assert hot_shard_indices([9, 1], 1.5) == [0]
        # A perfectly balanced load is never hot, whatever the volume.
        assert hot_shard_indices([100, 100], 1.5) == []

    def test_hot_shard_threshold_is_strict(self):
        # threshold = 1.5 * 12 / 2 = 9: count 9 is NOT hot, 10 is.
        assert hot_shard_indices([9, 3], 1.5) == []
        assert hot_shard_indices([10, 2], 1.5) == [0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaMap([], slots_per_shard=8)
        with pytest.raises(ValueError):
            ReplicaMap([[]], slots_per_shard=8)
        with pytest.raises(ValueError):
            ReplicaMap([[0, 0]], slots_per_shard=8)
        with pytest.raises(ValueError):
            ReplicaMap([[0]], slots_per_shard=4, counter_slots=4)
        with pytest.raises(ValueError):
            ReplicaMap([[0]], slots_per_shard=0)
        with pytest.raises(ValueError):
            ReplicaMap([[0]], slots_per_shard=8, counter_slots=-1)
        with pytest.raises(ValueError):
            ReplicaMap([[0]], slots_per_shard=8, hot_factor=1.0)
        with pytest.raises(ValueError):
            ReplicaMap([[0]], slots_per_shard=8, tables_per_server=0)
        with pytest.raises(ValueError):
            ReplicaMap([[0]], slots_per_shard=8,
                       counter_slots=2).locate_counter(-1)

    def test_table_allocation_is_bounded(self):
        rm = self.make(tables_per_server=2)
        assert rm.free_tables(0) == 1  # one taken by shard 0's primary
        extra = rm.take_table(0)
        assert rm.free_tables(0) == 0
        with pytest.raises(ValueError):
            rm.take_table(0)
        rm.release_table(0, extra)
        assert rm.free_tables(0) == 1

    def test_dead_rank_keeps_routes_until_failover(self):
        rm = self.make()
        rm.mark_dead(0)
        # Routing is deliberately blind to the silent death...
        assert [p.rank for p in rm.chain(0)] == [0, 1]
        # ...but the verification view already excludes it.
        assert [p.rank for p in rm.live_chain(0)] == [1]
        assert rm.chain_depth() == 1

    def test_fail_over_promotes_and_is_idempotent(self):
        rm = self.make()
        rm.mark_dead(0)
        assert rm.fail_over(0) == [0]
        assert [p.rank for p in rm.chain(0)] == [1]
        assert rm.epoch == 1
        assert rm.fail_over(0) == []  # late detector: no double count
        assert rm.epoch == 1

    def test_losing_the_last_replica_raises(self):
        rm = ReplicaMap([[0]], slots_per_shard=8)
        rm.mark_dead(0)
        with pytest.raises(RuntimeError, match="last replica"):
            rm.fail_over(0)

    def test_split_routes_top_bit_keys_to_child(self):
        rm = self.make(tables_per_server=2)
        placements = [Placement(1, rm.take_table(1)),
                      Placement(3, rm.take_table(3))]
        child = rm.add_split(0, placements)
        assert child == 2
        assert rm.group[child] == rm.group[0]
        routed = {rm.locate(f"key{i}")[0] for i in range(200)}
        assert child in routed  # some top-bit keys actually moved
        for i in range(200):
            shard, _, h = rm.locate(f"key{i}")
            if shard == child:
                assert (h >> 63) & 1 and h % rm.n_base_shards == 0
        with pytest.raises(ValueError):
            rm.add_split(0, placements)

    def test_epoch_flip_counts_mid_flight_ops_as_drained(self):
        rm = self.make()
        epoch0 = rm.begin_op(0)
        rm.thaw(0)  # an epoch flip lands mid-op
        rm.end_op(0, epoch0)
        assert rm.drained_ops == 1
        assert rm.epoch_flips == 1


# -- the store protocol, per chain depth ------------------------------------------


class Harness:
    """Passive servers laid out as ``n_groups`` chains of ``depth``."""

    def __init__(self, depth, n_groups=1, slots_per_shard=8,
                 counter_slots=4, tagged=None):
        self.depth = depth
        self.tagged = depth > 1 if tagged is None else tagged
        self.n_servers = n_groups * depth
        self.slots_per_shard = slots_per_shard
        self.replicas = ReplicaMap(
            [[g * depth + r for r in range(depth)] for g in range(n_groups)],
            slots_per_shard, counter_slots=counter_slots,
            tables_per_server=1)
        self.m = (ReplInstruments if self.tagged
                  else SvcInstruments).standalone()
        self.ledger = ApplyLedger() if self.tagged else None

    def run(self, *client_bodies):
        """Run one generator body per client rank; returns their results."""
        n_servers = self.n_servers
        cluster = Cluster(n_nodes=n_servers + len(client_bodies))
        table = self.slots_per_shard * slot_bytes(VALUE_SIZE, self.tagged)

        def program(ctx):
            rank = ctx.comm.rank
            is_server = rank < n_servers
            win = yield from ctx.comm.win_create(table if is_server else 8,
                                                 shared=True)
            if is_server:
                win.local_view()[:] = 0
            yield from win.fence()
            out = None
            if not is_server:
                cid = rank - n_servers
                store = KvStore(win, self.replicas, VALUE_SIZE,
                                instruments=self.m,
                                client_id=cid if self.tagged else None,
                                ledger=self.ledger)
                out = yield from client_bodies[cid](store, ctx)
            yield from win.fence()
            return out

        return cluster.run(program).results[n_servers:]

    def count(self, name):
        return self.m.counters[name].value


@pytest.fixture(params=[1, 2], ids=["depth1", "depth2"])
def harness(request):
    return Harness(request.param)


def slot_of(store, key, member=0):
    """(rank, slot base) of ``key`` on the ``member``-th chain member."""
    shard, slot, _ = store.replicas.locate(key)
    placement = store.replicas.chain(shard)[member]
    return placement.rank, store._slot_base(placement, slot)


class TestStoreProtocol:
    def test_namespace_and_header_follow_the_tags(self, harness):
        def body(store, ctx):
            yield from ()
            return store.ns, store.val_off, store.slot_size

        ns, val_off, slot_size = harness.run(body)[0]
        if harness.tagged:
            assert (ns, val_off, slot_size) == ("repl", 24, 24 + VALUE_SIZE)
        else:
            assert (ns, val_off, slot_size) == ("svc", 16, 16 + VALUE_SIZE)

    def test_put_then_get_roundtrip(self, harness):
        def body(store, ctx):
            yield from store.put("alpha", fill(7))
            value = yield from store.get("alpha")
            return value

        assert harness.run(body)[0] == fill(7)
        assert harness.count("writes") == 1
        assert harness.count("write_fast") == 1
        assert harness.count("write_fallbacks") == 0
        assert harness.count("read_misses") == 0
        # One versioned ack per chain member, one forward per backup.
        assert harness.count("acks") == harness.depth
        assert harness.count("forwards") == harness.depth - 1

    def test_every_member_holds_the_write_and_is_released(self, harness):
        def body(store, ctx):
            yield from store.put("alpha", fill(9))
            members = []
            for member in range(harness.depth):
                rank, base = slot_of(store, "alpha", member)
                blob = yield from store.win.get(store.slot_size, rank, base)
                members.append(bytes(np.asarray(blob)))
            return members

        members = harness.run(body)[0]
        assert len(set(members)) == 1  # byte-identical on every replica
        slot = members[0]
        assert int.from_bytes(slot[0:8], "little") == hash_key("alpha")
        assert int.from_bytes(slot[8:16], "little") == 2  # claimed, released
        assert slot[-VALUE_SIZE:] == fill(9)
        if harness.tagged:
            assert int.from_bytes(slot[16:24], "little") == (1 << 24) | 1
            assert harness.ledger.check(harness.replicas)["ok"]

    def test_get_missing_key_is_a_miss(self, harness):
        def body(store, ctx):
            value = yield from store.get("never-written")
            return value

        assert harness.run(body)[0] is None
        assert harness.count("read_misses") == 1

    def test_overwrite_wins(self, harness):
        def body(store, ctx):
            yield from store.put("k", fill(1))
            yield from store.put("k", fill(2))
            return (yield from store.get("k"))

        assert harness.run(body)[0] == fill(2)

    @pytest.mark.parametrize("depth", [1, 2], ids=["depth1", "depth2"])
    def test_hash_collision_evicts_previous_key(self, depth):
        """Two keys in the same slot: the table is a cache, last wins."""
        harness = Harness(depth, slots_per_shard=4, counter_slots=2)
        seen: dict[tuple, str] = {}
        pair = None
        for i in range(1000):
            key = f"collide-{i}"
            loc = harness.replicas.locate(key)[:2]
            if loc in seen:
                pair = (seen[loc], key)
                break
            seen[loc] = key
        assert pair is not None, "no collision in 1000 keys over 2 slots?"
        first, second = pair

        def body(store, ctx):
            yield from store.put(first, fill(3))
            yield from store.put(second, fill(4))
            a = yield from store.get(first)
            b = yield from store.get(second)
            return a, b

        assert harness.run(body)[0] == (None, fill(4))  # hash mismatch
        assert harness.count("read_misses") == 1

    def test_concurrent_writers_never_expose_torn_values(self, harness):
        """Clients hammer one key; every successful read is a uniform
        byte fill (any mix of two writes would not be)."""

        def writer(byte):
            def body(store, ctx):
                for i in range(6):
                    yield from store.put("hot", fill(byte + i))
                return None
            return body

        def reader(store, ctx):
            observed = []
            for _ in range(12):
                value = yield from store.get("hot")
                if value is not None:
                    observed.append(value)
            return observed

        results = harness.run(writer(10), writer(40), reader)
        for value in results[2]:
            assert len(set(value)) == 1, f"torn read: {value!r}"
        # A put is fast iff no claim of its walk needed the lock.  With
        # one claim per put every put resolves through exactly one of
        # the two paths; a deeper walk can fall back more than once.
        assert harness.count("writes") == 12
        resolved = (harness.count("write_fast")
                    + harness.count("write_fallbacks"))
        assert resolved == 12 if harness.depth == 1 else resolved >= 12
        if harness.tagged:
            assert harness.ledger.check(harness.replicas)["ok"]

    def test_persistently_odd_version_gives_up(self, harness):
        """A version word stuck odd (a writer that died mid-claim) can
        never validate: the read retries, falls back to the shared
        lock, retries again and gives up — counted, and reported as a
        miss, at any chain depth and in either namespace."""

        def body(store, ctx):
            yield from store.put("stuck", fill(5))
            rank, base = slot_of(store, "stuck")
            odd = np.frombuffer((3).to_bytes(8, "little"), dtype=np.uint8)
            yield from store.win.put(odd, rank, base + 8)
            yield from store.win.flush(rank)
            return (yield from store.get("stuck"))

        assert harness.run(body)[0] is None
        retries = 4  # the store's max_read_retries default
        assert harness.count("read_retries") == retries
        assert harness.count("read_fallbacks") == 1
        assert harness.count("read_giveups") == 1
        assert harness.count("read_misses") == 0
        assert harness.m.prefix == ("repl" if harness.tagged else "svc")

    def test_counter_increments_are_exact(self, harness):
        """Two clients increment disjoint counters concurrently; each
        reads its own back exactly (shared-counter exactness is covered
        by the driver's replay oracle).  Counters live on chain heads."""

        def client(cid, deltas):
            def body(store, ctx):
                for delta in deltas:
                    yield from store.incr(cid, delta)
                mismatches = yield from store.check_counters(
                    {cid: sum(deltas), cid + 2: 99})
                return (yield from store.get_counter(cid)), mismatches
            return body

        results = harness.run(client(0, [1, 5, 2]), client(1, [10, 1, -4]))
        assert [r[0] for r in results] == [8, 7]
        # check_counters reports exactly the counter that is off.
        assert results[0][1] == [{"counter": 2, "expected": 99, "actual": 0}]
        assert harness.count("incrs") == 6

    def test_value_size_enforced(self, harness):
        def body(store, ctx):
            with pytest.raises(ValueError):
                yield from store.put("k", b"wrong size")
            return "ok"

        assert harness.run(body)[0] == "ok"


class TestChainOnly:
    def test_dead_backup_is_detected_and_the_write_replayed_once(self):
        """The head applies, the backup turns out dead: the store fails
        the chain over, replays through the survivor and the tag dedupes
        the head's second visit — one apply, not two."""
        harness = Harness(depth=2)
        harness.replicas.mark_dead(1)

        def body(store, ctx):
            yield from store.put("alpha", fill(7))
            return (yield from store.get("alpha"))

        assert harness.run(body)[0] == fill(7)
        assert harness.count("dead_hops") == 1
        assert harness.count("failovers") == 1
        assert harness.count("replays") == 1
        assert harness.count("replay_skips") == 1
        assert harness.ledger.applies == {
            harness.replicas.locate("alpha")[:2]: {0: [(1 << 24) | 1]}}
        assert harness.ledger.check(harness.replicas)["ok"]

    def test_tags_do_not_need_a_backup(self):
        """A tagged chain of depth 1 (a ``replication=1`` cell) walks
        the same protocol: tag read under the claim, ledgered apply."""
        harness = Harness(depth=1, tagged=True)

        def body(store, ctx):
            yield from store.put("alpha", fill(1))
            yield from store.put("alpha", fill(2))
            return store.ns, (yield from store.get("alpha"))

        assert harness.run(body)[0] == ("repl", fill(2))
        assert harness.count("write_fast") == harness.count("acks") == 2
        assert harness.ledger.applies == {
            harness.replicas.locate("alpha")[:2]:
                {0: [(1 << 24) | 1, (1 << 24) | 2]}}
