"""Extended one-sided tests: flush, fetch-and-op, chunked gets, multi-window."""

import numpy as np
import pytest

from repro._units import KiB
from repro.cluster import Cluster
from repro.mpi.datatypes import (
    BYTE,
    DOUBLE,
    INT,
    LONG,
    Hindexed,
    Indexed,
    Resized,
    Struct,
    Vector,
)
from repro.mpi.errors import RMAError
from repro.mpi.pt2pt import ProtocolConfig
from repro.mpi.transport import PaperThresholdPolicy


class TestFlush:
    def test_flush_makes_put_visible_inside_epoch(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(256, shared=True)
            yield from win.fence()
            if comm.rank == 0:
                yield from win.lock(1)
                yield from win.put(np.full(16, 3, dtype=np.uint8), 1, 0)
                yield from win.flush(1)
                # After flush the data is at the target even though the
                # epoch is still open.
                data = yield from win.get(16, 1, 0)
                yield from win.unlock(1)
                return data.tobytes()
            yield ctx.cluster.engine.timeout(2000.0)
            return None

        run = Cluster(n_nodes=2).run(program)
        assert run.results[0] == bytes([3] * 16)

    def test_flush_all(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(64, shared=False)
            yield from win.fence()
            if comm.rank == 0:
                for target in (1, 2):
                    yield from win.put(np.full(8, target, dtype=np.uint8),
                                       target, 0)
                yield from win.flush()
                assert not any(record.acks for record in win._targets.values())
            yield from win.fence()
            return int(win.local_view()[0])

        run = Cluster(n_nodes=3).run(program)
        assert run.results[1] == 1 and run.results[2] == 2


class TestFetchAndOp:
    def test_remote_counter(self):
        """A classic RMA counter: fetch_and_op returns the previous value."""

        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(8, shared=True)
            win.local_view().view(np.int64)[0] = 0
            yield from win.fence()
            tickets = []
            for _ in range(3):
                yield from win.lock(0)
                old = yield from win.fetch_and_op(
                    np.array([1], dtype=np.int64), 0, 0, op="sum", datatype=LONG
                )
                yield from win.unlock(0)
                tickets.append(int(old.view(np.int64)[0]))
            yield from win.fence()
            final = int(win.local_view().view(np.int64)[0]) if comm.rank == 0 else None
            return (tickets, final)

        run = Cluster(n_nodes=3).run(program)
        all_tickets = sorted(t for tickets, _ in run.results for t in tickets)
        assert all_tickets == list(range(9))  # every increment got a unique ticket
        assert run.results[0][1] == 9

    def test_get_accumulate_returns_previous(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(32, shared=True)
            win.local_view().view(np.float64)[:] = 5.0
            yield from win.fence()
            if comm.rank == 0:
                old = yield from win.accumulate(
                    np.full(4, 2.0), 1, 0, op="sum", datatype=DOUBLE, fetch=True
                )
                yield from win.fence()
                return list(old.view(np.float64))
            yield from win.fence()
            return list(win.local_view().view(np.float64))

        run = Cluster(n_nodes=2).run(program)
        assert run.results[0] == [5.0] * 4       # previous contents
        assert run.results[1] == [7.0] * 4       # accumulated


class TestChunkedGet:
    def test_get_larger_than_response_region(self):
        """Gets bigger than the response staging region are chunked."""
        protocol = ProtocolConfig(osc_response_size=16 * KiB)

        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(64 * KiB, shared=True)
            if comm.rank == 1:
                win.local_view()[:] = np.arange(64 * KiB, dtype=np.uint8) % 251
            yield from win.fence()
            if comm.rank == 0:
                data = yield from win.get(64 * KiB, 1, 0)
                yield from win.fence()
                return data
            yield from win.fence()
            return None

        run = Cluster(n_nodes=2, protocol=protocol).run(program)
        expected = np.arange(64 * KiB, dtype=np.uint8) % 251
        assert np.array_equal(run.results[0], expected)


class TestMultiWindow:
    def test_two_windows_are_independent(self):
        def program(ctx):
            comm = ctx.comm
            win_a = yield from comm.win_create(64, shared=True)
            win_b = yield from comm.win_create(64, shared=True)
            yield from win_a.fence()
            yield from win_b.fence()
            if comm.rank == 0:
                yield from win_a.put(np.full(8, 0xAA, dtype=np.uint8), 1, 0)
                yield from win_b.put(np.full(8, 0xBB, dtype=np.uint8), 1, 0)
            yield from win_a.fence()
            yield from win_b.fence()
            return (int(win_a.local_view()[0]), int(win_b.local_view()[0]))

        run = Cluster(n_nodes=2).run(program)
        assert run.results[1] == (0xAA, 0xBB)

    def test_mixed_shared_private_windows(self):
        def program(ctx):
            comm = ctx.comm
            shared_win = yield from comm.win_create(64, shared=True)
            private_win = yield from comm.win_create(64, shared=False)
            yield from shared_win.fence()
            yield from private_win.fence()
            if comm.rank == 0:
                yield from shared_win.put(np.full(4, 1, dtype=np.uint8), 1, 0)
                yield from private_win.put(np.full(4, 2, dtype=np.uint8), 1, 0)
            yield from shared_win.fence()
            yield from private_win.fence()
            return (shared_win.counters["direct_puts"],
                    private_win.counters["emulated_puts"],
                    int(shared_win.local_view()[0]),
                    int(private_win.local_view()[0]))

        run = Cluster(n_nodes=2).run(program)
        assert run.results[0][:2] == (1, 1)
        assert run.results[1][2:] == (1, 2)


class TestRMAValidation:
    def test_bad_target_rank(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(64, shared=True)
            yield from win.fence()
            if comm.rank == 0:
                yield from win.put(np.zeros(8, dtype=np.uint8), 7, 0)
            yield from win.fence()

        with pytest.raises(RMAError):
            Cluster(n_nodes=2).run(program)

    def test_negative_window_size(self):
        def program(ctx):
            yield from ctx.comm.win_create(-1)

        with pytest.raises(RMAError):
            Cluster(n_nodes=1).run(program)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "private"])
    @pytest.mark.parametrize("fetch", [False, True], ids=["accumulate", "fetch_and_op"])
    def test_op_the_datatype_cannot_take(self, fetch, shared):
        """``band`` has no floating-point loop: refused at the origin,
        where the parent raised numpy's TypeError in the target's service
        loop."""
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(64, shared=shared)
            yield from win.fence()
            if comm.rank == 0:
                with pytest.raises(RMAError, match="'band' is not defined on MPI_DOUBLE"):
                    if fetch:
                        yield from win.fetch_and_op(np.ones(1), 1, 0, op="band",
                                                    datatype=DOUBLE)
                    else:
                        yield from win.accumulate(np.ones(8), 1, 0, op="band",
                                                  datatype=DOUBLE)
            yield from win.fence()
            return win.counters["accumulates"], bytes(win.local_view())

        assert Cluster(n_nodes=2).run(program).results == [(0, bytes(64))] * 2

    def test_unknown_accumulate_op(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(64, shared=True)
            yield from win.fence()
            yield from win.accumulate(np.zeros(8), 0, 0, op="xor")

        with pytest.raises(RMAError):
            Cluster(n_nodes=1).run(program)

    def test_accumulate_prod_min_max(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(24, shared=True)
            view = win.local_view().view(np.float64)
            view[:] = [4.0, 4.0, 4.0]
            yield from win.fence()
            if comm.rank == 0:
                yield from win.accumulate(np.array([3.0]), 1, 0, op="prod",
                                          datatype=DOUBLE)
                yield from win.accumulate(np.array([9.0]), 1, 8, op="min",
                                          datatype=DOUBLE)
                yield from win.accumulate(np.array([9.0]), 1, 16, op="max",
                                          datatype=DOUBLE)
            yield from win.fence()
            return list(win.local_view().view(np.float64))

        run = Cluster(n_nodes=2).run(program)
        assert run.results[1] == [12.0, 4.0, 9.0]


class TestSelfCommunication:
    def test_put_get_to_self(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(64, shared=True)
            yield from win.fence()
            yield from win.put(np.full(8, 7, dtype=np.uint8), comm.rank, 8)
            data = yield from win.get(8, comm.rank, 8)
            yield from win.fence()
            return data.tobytes()

        run = Cluster(n_nodes=2).run(program)
        assert all(r == bytes([7] * 8) for r in run.results)

    def test_accumulate_to_self(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(8, shared=True)
            win.local_view().view(np.float64)[0] = 1.5
            yield from win.fence()
            old = yield from win.accumulate(np.array([2.0]), comm.rank, 0,
                                            op="sum", datatype=DOUBLE,
                                            fetch=True)
            yield from win.fence()
            return (float(old.view(np.float64)[0]),
                    float(win.local_view().view(np.float64)[0]))

        run = Cluster(n_nodes=1).run(program)
        assert run.results[0] == (1.5, 3.5)


class TestLayoutBounds:
    """Every instance of a typed target layout must lie inside the part.

    The interval checked is the one ``target_count`` instances touch, not
    the span of a single instance: two doubles 16 B apart have a 24 B
    extent, so three of them touch [0, 72).  Shared windows take the
    direct path where the layout is one strided run, private ones the
    emulated path; layouts without a run are emulated either way.
    """

    GAPPED = staticmethod(lambda: Indexed([1, 1], [0, 2], DOUBLE).commit())
    STRIDED = staticmethod(lambda: Resized(DOUBLE, 0, 16).commit())
    #: Block one double *before* the displacement, one after: lb = -8.
    NEGATIVE_LB = staticmethod(lambda: Hindexed([1, 1], [-8, 8], DOUBLE).commit())

    @staticmethod
    def _run(winbytes, shared, op, make_type, count, disp):
        """Rank 1's window after the op — or, for ``get``, what rank 0
        fetched from a target window holding 1, 2, 3, ... (as doubles)."""
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(winbytes, shared=shared)
            win.local_view()[:] = 0
            if op == "get":
                win.local_view().view(np.float64)[:] = np.arange(
                    1, winbytes // 8 + 1)
            dtype = make_type()
            nbytes = dtype.size * count
            yield from win.fence()
            fetched = None
            if comm.rank == 0:
                data = np.arange(1, nbytes // 8 + 1, dtype=np.float64)
                if op == "put":
                    yield from win.put(data, 1, disp, target_datatype=dtype,
                                       target_count=count)
                elif op == "get":
                    fetched = yield from win.get(
                        nbytes, 1, disp, target_datatype=dtype,
                        target_count=count)
                else:
                    yield from win.accumulate(data, 1, disp,
                                              target_datatype=dtype,
                                              target_count=count)
            yield from win.fence()
            if fetched is not None:
                return fetched.view(np.float64).tolist()
            return win.local_view().view(np.float64).tolist()

        return Cluster(n_nodes=2).run(program)

    @staticmethod
    def _result(run, op):
        return run.results[0 if op == "get" else 1]

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("op", ["put", "get", "accumulate"])
    def test_overrun_at_count_above_one(self, shared, op):
        # One instance spans 24 B of the 64 B part; three reach byte 72.
        with pytest.raises(RMAError, match=r"\[0, 72\) outside window part"):
            self._run(64, shared, op, self.GAPPED, 3, 0)

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("op", ["put", "get", "accumulate"])
    def test_exact_fit_is_accepted(self, shared, op):
        run = self._run(72, shared, op, self.GAPPED, 3, 0)
        # Doubles 0, 2 of each 3-double instance: put writes 1..6 there,
        # get reads the values 1, 3, 4, 6, 7, 9 stored there.
        expected = ([1, 3, 4, 6, 7, 9] if op == "get"
                    else [1, 0, 2, 3, 0, 4, 5, 0, 6])
        assert self._result(run, op) == expected

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("op", ["put", "get", "accumulate"])
    def test_negative_lower_bound_underruns(self, shared, op):
        with pytest.raises(RMAError, match=r"\[-8, 40\) outside window part"):
            self._run(64, shared, op, self.NEGATIVE_LB, 2, 0)
        # Shifted by the lower bound the same access fits exactly.
        run = self._run(48, shared, op, self.NEGATIVE_LB, 2, 8)
        expected = [1, 3, 4, 6] if op == "get" else [1, 0, 2, 3, 0, 4]
        assert self._result(run, op) == expected

    @pytest.mark.parametrize("shared", [True, False])
    def test_strided_run_overrun_and_fit(self, shared):
        """One-run layouts (the direct path on shared windows)."""
        with pytest.raises(RMAError, match=r"\[0, 40\) outside window part"):
            self._run(32, shared, "put", self.STRIDED, 3, 0)
        run = self._run(40, shared, "put", self.STRIDED, 3, 0)
        assert run.results[1] == [1, 0, 2, 0, 3]


class TestTypedRemoteGet:
    """A typed get returns the bytes of its target layout on every path:
    direct remote loads, remote-put (shared), private-window emulation,
    and a response chunked through a small ``osc_response_size``.  The
    default verdict and the paper's 2 KiB rule (``PaperThresholdPolicy``)
    each take their own shared-window path.  Expected bytes come from the
    target window's contents by numpy indexing."""

    WIN = 16 * KiB
    DISP = 40

    #: name -> (type, count, instance-relative (offset, length) blocks,
    #: counter of the shared-window path under the verdict, under the
    #: paper's rule).  64 stalled 8 B reads lose to one remote-put.
    LAYOUTS = {
        "vector-512B": (lambda: Vector(64, 1, 2, DOUBLE), 1,
                        [(16 * i, 8) for i in range(64)],
                        ("remote_puts", "direct_gets")),
        "vector-4KiB": (lambda: Vector(512, 1, 2, DOUBLE), 1,
                        [(16 * i, 8) for i in range(512)],
                        ("remote_puts", "remote_puts")),
        "indexed-x3": (lambda: Indexed([2, 1], [0, 3], DOUBLE), 3,
                       [(0, 16), (24, 8)], ("remote_puts", "remote_puts")),
        "struct-x2": (lambda: Struct([1, 1], [0, 12], [INT, DOUBLE]), 2,
                      [(0, 4), (12, 8)], ("remote_puts", "remote_puts")),
        "offset-block": (lambda: Hindexed([64], [24], BYTE), 1,
                         [(24, 64)], ("direct_gets", "direct_gets")),
    }

    def _get(self, shared, name, protocol=None, policy=None):
        make_type, count, _, _ = self.LAYOUTS[name]
        dtype = make_type().commit()
        window = np.random.default_rng(7).integers(
            0, 256, self.WIN, dtype=np.uint8)

        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(self.WIN, shared=shared)
            win.local_view()[:] = window
            yield from win.fence()
            data = None
            if comm.rank == 0:
                data = yield from win.get(
                    dtype.size * count, 1, self.DISP, target_datatype=dtype,
                    target_count=count)
            yield from win.fence()
            return data, dict(win.counters)

        cluster = Cluster(n_nodes=2, protocol=protocol or ProtocolConfig(),
                          policy=policy)
        return cluster.run(program).results[0], self._expected(
            window, dtype, name)

    def _expected(self, window, dtype, name):
        _, count, blocks, _ = self.LAYOUTS[name]
        rel = np.concatenate([np.arange(o, o + n) for o, n in blocks])
        idx = self.DISP + np.arange(count)[:, None] * dtype.extent + rel
        return window[idx.reshape(-1)]

    @pytest.mark.parametrize("paper", [False, True])
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("name", list(LAYOUTS))
    def test_returns_the_layout_bytes(self, shared, name, paper):
        (data, counters), expected = self._get(
            shared, name, policy=PaperThresholdPolicy() if paper else None)
        assert data.tobytes() == expected.tobytes()
        path = self.LAYOUTS[name][3][paper] if shared else "emulated_gets"
        assert counters[path] == 1

    @pytest.mark.parametrize("shared", [True, False])
    def test_chunked_response(self, shared):
        """4 KiB of layout through a 1 KiB response region: four chunks,
        each packing its own range of the packed stream."""
        protocol = ProtocolConfig(osc_response_size=1 * KiB)
        (data, _), expected = self._get(shared, "vector-4KiB", protocol)
        assert data.tobytes() == expected.tobytes()

    def test_offset_block_put_lands_at_its_offset(self):
        """The emulated put of a one-block layout that starts 24 B past
        the displacement writes there, not at the displacement."""
        dtype = Hindexed([64], [24], BYTE).commit()

        def program(ctx):
            win = yield from ctx.comm.win_create(256, shared=False)
            win.local_view()[:] = 0
            yield from win.fence()
            if ctx.comm.rank == 0:
                yield from win.put(np.full(64, 7, dtype=np.uint8), 1, 8,
                                   target_datatype=dtype)
            yield from win.fence()
            return win.local_view().tobytes()

        window = Cluster(n_nodes=2).run(program).results[1]
        assert window == bytes(32) + bytes([7] * 64) + bytes(160)

    def test_size_mismatch_rejected(self):
        """An origin byte count that is not the layout's packed size."""
        dtype = Struct([1, 1], [0, 12], [INT, DOUBLE]).commit()

        def program(ctx):
            win = yield from ctx.comm.win_create(256, shared=False)
            yield from win.fence()
            if ctx.comm.rank == 0:
                yield from win.get(dtype.size + 4, 1, 0,
                                   target_datatype=dtype)
            yield from win.fence()

        with pytest.raises(RMAError, match="does not match target type"):
            Cluster(n_nodes=2).run(program)
