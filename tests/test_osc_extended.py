"""Extended one-sided tests: flush, fetch-and-op, chunked gets, multi-window."""

import numpy as np
import pytest

from repro._units import KiB
from repro.cluster import Cluster
from repro.mpi.datatypes import DOUBLE, LONG, Hindexed, Indexed, Resized
from repro.mpi.errors import RMAError
from repro.mpi.pt2pt import ProtocolConfig


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
                assert not win._pending_acks
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
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(winbytes, shared=shared)
            win.local_view()[:] = 0
            dtype = make_type()
            nbytes = dtype.size * count
            yield from win.fence()
            if comm.rank == 0:
                data = np.arange(1, nbytes // 8 + 1, dtype=np.float64)
                if op == "put":
                    yield from win.put(data, 1, disp, target_datatype=dtype,
                                       target_count=count)
                elif op == "get":
                    yield from win.get(nbytes, 1, disp, target_datatype=dtype,
                                       target_count=count)
                else:
                    yield from win.accumulate(data, 1, disp,
                                              target_datatype=dtype,
                                              target_count=count)
            yield from win.fence()
            return win.local_view().view(np.float64).tolist()

        return Cluster(n_nodes=2).run(program)

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
        if op != "get":
            assert run.results[1] == [1, 0, 2, 3, 0, 4, 5, 0, 6]

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("op", ["put", "get", "accumulate"])
    def test_negative_lower_bound_underruns(self, shared, op):
        with pytest.raises(RMAError, match=r"\[-8, 40\) outside window part"):
            self._run(64, shared, op, self.NEGATIVE_LB, 2, 0)
        # Shifted by the lower bound the same access fits exactly.
        run = self._run(48, shared, op, self.NEGATIVE_LB, 2, 8)
        if op != "get":
            assert run.results[1] == [1, 0, 2, 3, 0, 4]

    @pytest.mark.parametrize("shared", [True, False])
    def test_strided_run_overrun_and_fit(self, shared):
        """One-run layouts (the direct path on shared windows)."""
        with pytest.raises(RMAError, match=r"\[0, 40\) outside window part"):
            self._run(32, shared, "put", self.STRIDED, 3, 0)
        run = self._run(40, shared, "put", self.STRIDED, 3, 0)
        assert run.results[1] == [1, 0, 2, 0, 3]
