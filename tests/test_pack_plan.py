"""Unit and equivalence tests for the packing-plan subsystem.

Covers the :class:`PackPlan` run tables (cross-leaf and cross-instance
coalescing, prefix-sum range lookup), the bounded plan cache (a
:class:`~repro.memlib.CostTable` keyed by ``(ft, count)``: hit/miss/
eviction counters, LRU order, size bound, global toggle), and end-to-end
equivalence: simulated pt2pt rendezvous transfers and OSC put/get/
accumulate must produce byte-identical results and identical simulated
times with the cache on and off.
"""

import numpy as np
import pytest

from repro._units import KiB
from repro.cluster import Cluster
from repro.memlib import CostTable
from repro.mpi.datatypes import DOUBLE, Struct, Vector
from repro.mpi.flatten import (
    PackError,
    PackPlan,
    get_plan,
    plan_cache_disabled,
    plan_cache_stats,
    reset_plan_cache,
)
from repro.mpi.pt2pt import NonContigMode, ProtocolConfig


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_plan_cache()
    yield
    reset_plan_cache()


# -- coalescing ----------------------------------------------------------------


class TestCoalescing:
    def test_cross_instance_coalescing(self):
        """Adjacent instances fuse: the last block of instance k ends exactly
        where the first block of instance k+1 begins (extent = 56 here, the
        span of the last block), so the boundary runs merge into one."""
        vec = Vector(4, 1, 2, DOUBLE).commit()
        assert vec.extent == 56  # no trailing gap after the last block
        plan = PackPlan(vec.flattened, 2)
        assert plan.total == 64
        assert plan.run_offsets.tolist() == [0, 16, 32, 48, 72, 88, 104]
        assert plan.run_lengths.tolist() == [8, 8, 8, 16, 8, 8, 8]

    def test_cross_instance_adjacent_fuses(self):
        """With extent shrunk to blocks*stride... use a layout where the
        stream IS adjacent: Vector(2,2,2,DOUBLE) has blocks of 16 B at 0 and
        32; two instances (extent 32... ) — craft adjacency via Struct."""
        # Struct: [Vector(2,1,2,DOUBLE) at 0, DOUBLE at 8] — the vector's
        # first block [0,8) is adjacent to the double at [8,16), and the
        # vector's second block is [16,24).
        s = Struct([1, 1], [0, 8], [Vector(2, 1, 2, DOUBLE), DOUBLE]).commit()
        plan = PackPlan(s.flattened, 1)
        # Leaf-major stream: vector blocks (0, 16) then the double (8).
        # Memory-adjacency alone is not enough — runs must also be adjacent
        # in the packed stream, so (16,8) then (8,8) do NOT fuse.
        assert plan.total == 24
        assert len(plan.run_offsets) == len(plan.run_lengths)
        assert int(plan.run_lengths.sum()) == 24

    def test_cross_leaf_coalescing(self):
        """A leaf ending exactly where the next leaf begins (in both the
        stream and memory) fuses into one run."""
        # DOUBLE at 0, DOUBLE at 8: two leaves, adjacent in stream and
        # memory — must coalesce to a single 16-byte run.
        s = Struct([1, 1], [0, 8], [DOUBLE, DOUBLE]).commit()
        plan = PackPlan(s.flattened, 1)
        assert plan.run_offsets.tolist() == [0]
        assert plan.run_lengths.tolist() == [16]

    def test_contiguous_fast_path_single_run(self):
        vec = Vector(4, 2, 2, DOUBLE).commit()  # gap-free: one block
        plan = PackPlan(vec.flattened, 3)
        assert plan.run_offsets.tolist() == [0]
        assert plan.run_lengths.tolist() == [3 * vec.size]

    def test_prefix_sums_and_total(self):
        vec = Vector(4, 1, 2, DOUBLE).commit()
        plan = PackPlan(vec.flattened, 2)
        starts = plan.run_starts.tolist()
        # One entry per run plus the trailing total (searchsorted sentinel).
        assert starts == list(np.cumsum([0] + plan.run_lengths.tolist()))
        assert starts[-1] == plan.total == int(plan.run_lengths.sum())

    def test_execute_matches_pack(self):
        vec = Vector(5, 3, 7, DOUBLE).commit()
        ft = vec.flattened
        mem = np.random.default_rng(3).integers(
            0, 256, size=4 * ft.extent + 64, dtype=np.uint8
        )
        plan = PackPlan(ft, 3)
        # 3 doubles every 7, instances one extent apart, anchored at 8.
        (leaf,) = ft.leaves
        starts = (8 + np.arange(3)[:, None] * ft.extent
                  + leaf.block_offsets()[None, :]).reshape(-1)
        expected = mem[(starts[:, None] + np.arange(leaf.size)).reshape(-1)]
        assert np.array_equal(plan.execute_pack(mem, 8), expected)

    def test_range_validation(self):
        vec = Vector(2, 1, 2, DOUBLE).commit()
        plan = PackPlan(vec.flattened, 1)
        mem = np.zeros(64, dtype=np.uint8)
        with pytest.raises(PackError):
            plan.execute_pack(mem, 0, -1, 4)
        with pytest.raises(PackError):
            plan.execute_pack(mem, 0, 0, plan.total + 1)
        with pytest.raises(PackError):
            plan.execute_unpack(mem, 0, plan.total, np.zeros(1, dtype=np.uint8))


# -- the cache -----------------------------------------------------------------


class TestPlanCache:
    def test_hit_miss_counters(self):
        vec = Vector(4, 1, 2, DOUBLE).commit()
        cache = CostTable(maxsize=8)
        p1 = get_plan(vec.flattened, 2, cache=cache)
        p2 = get_plan(vec.flattened, 2, cache=cache)
        assert p1 is p2
        assert cache.hits == 1 and cache.misses == 1
        get_plan(vec.flattened, 3, cache=cache)  # different count: new entry
        assert cache.misses == 2

    def test_size_bound_and_evictions(self):
        cache = CostTable(maxsize=4)
        types = [Vector(n, 1, 2, DOUBLE).commit() for n in range(1, 8)]
        for t in types:
            get_plan(t.flattened, 1, cache=cache)
        assert len(cache) == 4
        assert cache.evictions == 3

    def test_lru_order(self):
        cache = CostTable(maxsize=2)
        a = Vector(2, 1, 2, DOUBLE).commit()
        b = Vector(3, 1, 2, DOUBLE).commit()
        c = Vector(4, 1, 2, DOUBLE).commit()
        get_plan(a.flattened, 1, cache=cache)
        get_plan(b.flattened, 1, cache=cache)
        get_plan(a.flattened, 1, cache=cache)  # refresh a
        get_plan(c.flattened, 1, cache=cache)  # evicts b, not a
        assert get_plan(a.flattened, 1, cache=cache) is not None
        assert cache.hits == 2  # a twice; b was evicted

    def test_disabled_builds_fresh(self):
        vec = Vector(4, 1, 2, DOUBLE).commit()
        p_cached = get_plan(vec.flattened, 2)
        before = plan_cache_stats()
        with plan_cache_disabled():
            p_fresh = get_plan(vec.flattened, 2)
            assert not plan_cache_stats()["enabled"]
        after = plan_cache_stats()
        assert p_fresh is not p_cached
        assert after["size"] == before["size"]          # cache untouched
        assert after["builds"] == before["builds"] + 1  # but a build happened
        assert after["enabled"]

    def test_default_cache_identity(self):
        vec = Vector(4, 1, 2, DOUBLE).commit()
        assert get_plan(vec.flattened, 2) is get_plan(vec.flattened, 2)

    def test_stats_shape(self):
        stats = plan_cache_stats()
        for key in ("hits", "misses", "evictions", "size", "maxsize",
                    "builds", "enabled"):
            assert key in stats


# -- end-to-end equivalence ----------------------------------------------------


def _rendezvous_roundtrip():
    """One strided rendezvous-sized transfer; returns (bytes, sim time)."""
    vec = Vector(4096, 1, 2, DOUBLE).commit()  # 32 kiB payload > eager max

    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(vec.extent)
        if comm.rank == 0:
            rng = np.random.default_rng(42)
            buf.read()[:] = rng.integers(0, 256, size=vec.extent, dtype=np.uint8)
            yield from comm.send(buf, dest=1, tag=0, datatype=vec, count=1)
            return None
        yield from comm.recv(buf, source=0, tag=0, datatype=vec, count=1)
        return (bytes(buf.read().tobytes()), ctx.now)

    protocol = ProtocolConfig(noncontig_mode=NonContigMode.DIRECT)
    run = Cluster(n_nodes=2, protocol=protocol).run(program)
    return run.results[1]


class TestEndToEndEquivalence:
    def test_rendezvous_pt2pt_cache_on_off(self):
        reset_plan_cache()
        data_on, t_on = _rendezvous_roundtrip()
        assert plan_cache_stats()["hits"] >= 1  # hot path actually reused plans
        with plan_cache_disabled():
            data_off, t_off = _rendezvous_roundtrip()
        assert data_on == data_off
        assert t_on == t_off  # the cache saves host work, not simulated time

    @pytest.mark.parametrize("shared", [True, False])
    def test_osc_put_get_cache_on_off(self, shared):
        vec = Vector(16, 2, 4, DOUBLE).commit()

        def program(ctx, shared=shared):
            comm = ctx.comm
            win = yield from comm.win_create(2 * KiB, shared=shared)
            yield from win.fence()
            if comm.rank == 0:
                # Remote put scatters through the datatype (plan-backed
                # unpack on the target side / in the handler closure).
                data = np.arange(vec.size, dtype=np.uint8)
                yield from win.put(data, 1, 64, target_datatype=vec,
                                   target_count=1)
            yield from win.fence()
            back = None
            if comm.rank == 1:
                # Local-window get gathers through the datatype
                # (plan-backed pack).
                back = yield from win.get(vec.size, 1, 64,
                                          target_datatype=vec, target_count=1)
            yield from win.fence()
            if comm.rank == 1:
                return (back.tobytes(),
                        win.local_view()[: vec.extent + 64].tobytes())
            return None

        run_on = Cluster(n_nodes=2).run(program)
        with plan_cache_disabled():
            run_off = Cluster(n_nodes=2).run(program)
        assert run_on.results[1] == run_off.results[1]
        # The roundtrip is self-consistent: the gather returns exactly what
        # the scatter wrote.
        assert run_on.results[1][0] == bytes(range(vec.size))

    def test_osc_accumulate_cache_on_off(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(256, shared=False)
            if comm.rank == 1:
                win.local_view()[: 4 * 8] = np.frombuffer(
                    np.full(4, 5.0).tobytes(), dtype=np.uint8
                )
            yield from win.fence()
            if comm.rank == 0:
                yield from win.accumulate(np.full(4, 2.0), 1, 0, op="sum",
                                          datatype=DOUBLE)
            yield from win.fence()
            return win.local_view()[: 4 * 8].tobytes()

        run_on = Cluster(n_nodes=2).run(program)
        with plan_cache_disabled():
            run_off = Cluster(n_nodes=2).run(program)
        assert run_on.results[1] == run_off.results[1]
        assert np.frombuffer(run_on.results[1], dtype=np.float64).tolist() == [
            7.0
        ] * 4


# -- execute_unpack dtype handling (regression) ---------------------------------


class TestUnpackRangeDtypes:
    def test_strided_float64_payload(self):
        """A non-contiguous float64 slice is accepted (it used to raise:
        ``reshape(-1)`` on an already-1-D strided array is a no-op view and
        the subsequent uint8 ``view`` failed)."""
        vec = Vector(4, 1, 2, DOUBLE).commit()
        plan = PackPlan(vec.flattened, 1)
        payload = np.arange(8, dtype=np.float64)[::2]
        assert not payload.flags["C_CONTIGUOUS"]
        mem = np.zeros(vec.extent + 16, dtype=np.uint8)
        plan.execute_unpack(mem, 0, 0, payload)
        assert mem[:vec.extent].view(np.float64)[::2].tolist() == [0, 2, 4, 6]
        packed = plan.execute_pack(mem, 0)
        assert packed.tobytes() == np.ascontiguousarray(payload).tobytes()
