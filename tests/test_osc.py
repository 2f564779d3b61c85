"""Integration tests: MPI-2 one-sided communication on the simulated cluster."""

import numpy as np
import pytest

from repro._units import KiB
from repro.cluster import Cluster
from repro.mpi.datatypes import DOUBLE, INT, Indexed, Vector
from repro.mpi.errors import RMAError
from repro.mpi.transport import PaperThresholdPolicy


def make_cluster(n=2, **kw):
    return Cluster(n_nodes=n, **kw)


class TestWindowBasics:
    @pytest.mark.parametrize("shared", [True, False])
    def test_put_then_fence_visible(self, shared):
        def program(ctx, shared=shared):
            comm = ctx.comm
            win = yield from comm.win_create(1 * KiB, shared=shared)
            yield from win.fence()
            if comm.rank == 0:
                data = np.arange(128, dtype=np.uint8)
                yield from win.put(data, target=1, target_disp=64)
            yield from win.fence()
            if comm.rank == 1:
                return win.local_view()[64:192].tobytes()
            return None

        run = make_cluster().run(program)
        assert run.results[1] == bytes(range(128))

    @pytest.mark.parametrize("shared", [True, False])
    def test_get_small_and_large(self, shared):
        for nbytes in (64, 32 * KiB):
            def program(ctx, nbytes=nbytes, shared=shared):
                comm = ctx.comm
                win = yield from comm.win_create(64 * KiB, shared=shared)
                if comm.rank == 1:
                    win.local_view()[:nbytes] = np.arange(nbytes, dtype=np.uint8) % 199
                yield from win.fence()
                if comm.rank == 0:
                    data = yield from win.get(nbytes, target=1, target_disp=0)
                    yield from win.fence()
                    return data.tobytes()
                yield from win.fence()
                return None

            run = make_cluster().run(program)
            expected = (np.arange(nbytes, dtype=np.uint8) % 199).tobytes()
            assert run.results[0] == expected, (shared, nbytes)

    def test_direct_vs_emulated_counters(self):
        def program(ctx, shared):
            comm = ctx.comm
            win = yield from comm.win_create(4 * KiB, shared=shared)
            yield from win.fence()
            if comm.rank == 0:
                yield from win.put(np.ones(64, dtype=np.uint8), 1, 0)
                _ = yield from win.get(64, 1, 128)
            yield from win.fence()
            return dict(win.counters)

        shared_run = make_cluster().run(lambda ctx: program(ctx, True))
        assert shared_run.results[0]["direct_puts"] == 1
        assert shared_run.results[0]["direct_gets"] == 1
        assert shared_run.results[0]["emulated_puts"] == 0

        private_run = make_cluster().run(lambda ctx: program(ctx, False))
        assert private_run.results[0]["emulated_puts"] == 1
        assert private_run.results[0]["emulated_gets"] == 1
        assert private_run.results[0]["direct_puts"] == 0

    def test_large_shared_get_uses_remote_put(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(64 * KiB, shared=True)
            yield from win.fence()
            if comm.rank == 0:
                _ = yield from win.get(32 * KiB, 1, 0)
            yield from win.fence()
            return dict(win.counters)

        run = make_cluster().run(program)
        assert run.results[0]["remote_puts"] == 1
        assert run.results[0]["direct_gets"] == 0

    def test_put_out_of_window_rejected(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(128, shared=True)
            yield from win.fence()
            if comm.rank == 0:
                yield from win.put(np.zeros(256, dtype=np.uint8), 1, 0)
            yield from win.fence()

        with pytest.raises(RMAError):
            make_cluster().run(program)

    def test_accumulate_sum_and_replace(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(64, shared=True)
            view = win.local_view().view(np.float64)
            view[:] = 10.0
            yield from win.fence()
            if comm.rank == 0:
                contrib = np.full(4, float(comm.rank + 1))
                yield from win.accumulate(contrib, target=1, target_disp=0,
                                          op="sum", datatype=DOUBLE)
                yield from win.accumulate(np.full(2, 99.0), target=1,
                                          target_disp=32, op="replace",
                                          datatype=DOUBLE)
            yield from win.fence()
            return list(win.local_view().view(np.float64))

        run = make_cluster().run(program)
        assert run.results[1] == [11.0, 11.0, 11.0, 11.0, 99.0, 99.0, 10.0, 10.0]

    def test_concurrent_accumulates_all_applied(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(8, shared=True)
            win.local_view().view(np.float64)[0] = 0.0
            yield from win.fence()
            if comm.rank != 0:
                yield from win.accumulate(np.array([float(comm.rank)]), 0, 0,
                                          op="sum", datatype=DOUBLE)
            yield from win.fence()
            return float(win.local_view().view(np.float64)[0])

        run = make_cluster(n=4).run(program)
        assert run.results[0] == 6.0  # 1+2+3

    def test_strided_put_with_datatype(self):
        vec = Vector(8, 1, 2, DOUBLE).commit()

        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(vec.extent, shared=True)
            win.local_view().view(np.float64)[:] = -1.0
            yield from win.fence()
            if comm.rank == 0:
                data = np.arange(8, dtype=np.float64)
                yield from win.put(data, 1, 0, target_datatype=vec)
            yield from win.fence()
            return list(win.local_view().view(np.float64)[:6])

        run = make_cluster().run(program)
        assert run.results[1] == [0.0, -1.0, 1.0, -1.0, 2.0, -1.0]


class TestSynchronization:
    def test_post_start_complete_wait(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(256, shared=True)
            if comm.rank == 1:
                yield from win.post([0])
                yield from win.wait([0])
                return win.local_view()[:4].tobytes()
            yield from win.start([1])
            yield from win.put(np.array([1, 2, 3, 4], dtype=np.uint8), 1, 0)
            yield from win.complete([1])
            return None

        run = make_cluster().run(program)
        assert run.results[1] == b"\x01\x02\x03\x04"

    def test_repeated_epochs(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(8, shared=True)
            values = []
            for round_no in range(3):
                if comm.rank == 1:
                    yield from win.post([0])
                    yield from win.wait([0])
                    values.append(int(win.local_view()[0]))
                else:
                    yield from win.start([1])
                    yield from win.put(np.array([round_no + 5], dtype=np.uint8), 1, 0)
                    yield from win.complete([1])
            return values

        run = make_cluster().run(program)
        assert run.results[1] == [5, 6, 7]

    def test_lock_unlock_passive_target(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(8, shared=True)
            win.local_view().view(np.int64)[0] = 0
            yield from win.fence()
            if comm.rank != 2:
                for _ in range(5):
                    yield from win.lock(2)
                    current = yield from win.get(8, 2, 0)
                    value = int(current.view(np.int64)[0])
                    yield from win.put(
                        np.array([value + 1], dtype=np.int64), 2, 0
                    )
                    yield from win.unlock(2)
            yield from win.fence()
            return int(win.local_view().view(np.int64)[0])

        run = make_cluster(n=3).run(program)
        # Two ranks, five exclusive increments each: no lost updates.
        assert run.results[2] == 10

    def test_fence_waits_for_emulated_ops(self):
        """An emulated put must be applied before fence returns everywhere."""

        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(1 * KiB, shared=False)
            yield from win.fence()
            if comm.rank == 0:
                yield from win.put(np.full(512, 3, dtype=np.uint8), 1, 0)
            yield from win.fence()
            return int(win.local_view()[0]) if comm.rank == 1 else None

        run = make_cluster().run(program)
        assert run.results[1] == 3


class TestOSCTiming:
    def test_direct_put_faster_than_emulated(self):
        def program(ctx, shared):
            comm = ctx.comm
            win = yield from comm.win_create(4 * KiB, shared=shared)
            yield from win.fence()
            t0 = ctx.now
            if comm.rank == 0:
                for i in range(16):
                    yield from win.put(np.ones(64, dtype=np.uint8), 1, i * 128)
            yield from win.fence()
            return ctx.now - t0

        paper = PaperThresholdPolicy()
        t_shared = make_cluster(policy=paper).run(
            lambda c: program(c, True)).results[0]
        t_private = make_cluster(policy=paper).run(
            lambda c: program(c, False)).results[0]
        assert t_private > 2 * t_shared
        # The default batches the 16 private puts: one shipment, one
        # interrupt and one handler pass at the closing fence.
        t_batched = make_cluster().run(lambda c: program(c, False)).results[0]
        assert t_shared < t_batched < t_private / 4

    def test_direct_get_slower_than_direct_put(self):
        """Read/write asymmetry shows through MPI_Get vs MPI_Put."""

        def program(ctx, op):
            comm = ctx.comm
            win = yield from comm.win_create(4 * KiB, shared=True)
            yield from win.fence()
            t0 = ctx.now
            if comm.rank == 0:
                for i in range(16):
                    if op == "put":
                        yield from win.put(np.ones(64, dtype=np.uint8), 1, i * 128)
                    else:
                        _ = yield from win.get(64, 1, i * 128)
            yield from win.fence()
            return ctx.now - t0

        t_put = make_cluster().run(lambda c: program(c, "put")).results[0]
        t_get = make_cluster().run(lambda c: program(c, "get")).results[0]
        assert t_get > 1.5 * t_put


class TestLocalTargetAgreesWithRemote:
    """A put, get or accumulate behaves the same whether its target is
    this rank's own window or another rank's: one layout resolution
    (size, bounds, run, plan) and one target-side body serve both."""

    #: 12 B targets: two blocks and no single strided run (remote targets
    #: take the emulated path on shared windows too), or one strided run.
    TARGETS_12B = {
        "indexed": lambda: Indexed([1, 2], [0, 2], INT).commit(),
        "vector": lambda: Vector(3, 1, 2, INT).commit(),
    }

    LAYOUTS = {
        "contiguous": lambda: None,
        "vector": lambda: Vector(3, 1, 2, DOUBLE).commit(),
        "indexed": lambda: Indexed([1, 2], [0, 3], DOUBLE).commit(),
    }
    WIN = 256
    DISP = 16

    @pytest.mark.parametrize("layout", list(TARGETS_12B))
    @pytest.mark.parametrize("target", [0, 1], ids=["local", "remote"])
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("op", ["put", "get", "accumulate"])
    def test_size_mismatch_raises_alike(self, op, shared, target, layout):
        dtype = self.TARGETS_12B[layout]()

        def program(ctx):
            win = yield from ctx.comm.win_create(self.WIN, shared=shared)
            yield from win.fence()
            if ctx.comm.rank == 0:
                if op == "put":
                    yield from win.put(np.zeros(8, dtype=np.uint8), target,
                                       0, target_datatype=dtype)
                elif op == "get":
                    yield from win.get(8, target, 0, target_datatype=dtype)
                else:
                    yield from win.accumulate(np.zeros(1), target, 0,
                                              target_datatype=dtype)
            yield from win.fence()

        with pytest.raises(
                RMAError,
                match=r"origin data of 8 B does not match target type of 12 B"):
            make_cluster().run(program)

    def _run(self, op, layout, target, shared):
        """Rank 0's fetched bytes and the target window after one op."""
        dtype = self.LAYOUTS[layout]()
        nbytes = 24
        window = (np.arange(self.WIN // 8, dtype=np.float64) * 0.5).view(
            np.uint8)
        origin = (np.arange(nbytes // 8, dtype=np.float64) + 3.0).view(
            np.uint8)

        def program(ctx):
            win = yield from ctx.comm.win_create(self.WIN, shared=shared)
            win.local_view()[:] = window
            yield from win.fence()
            fetched = None
            if ctx.comm.rank == 0:
                if op == "put":
                    yield from win.put(origin, target, self.DISP,
                                       target_datatype=dtype)
                elif op == "get":
                    fetched = yield from win.get(nbytes, target, self.DISP,
                                                 target_datatype=dtype)
                else:
                    fetched = yield from win.accumulate(
                        origin, target, self.DISP, fetch=True,
                        target_datatype=dtype)
            yield from win.fence()
            return (None if fetched is None else fetched.tobytes(),
                    win.local_view().tobytes())

        run = make_cluster().run(program)
        return run.results[0][0], run.results[target][1]

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("op", ["put", "get", "accumulate"])
    @pytest.mark.parametrize("shared_local", [True, False])
    def test_local_equals_emulated(self, op, layout, shared_local):
        local = self._run(op, layout, 0, shared_local)
        emulated = self._run(op, layout, 1, False)
        assert local[0] == emulated[0]
        assert local[1] == emulated[1]
        if op != "put":
            assert local[0] is not None and len(local[0]) == 24
