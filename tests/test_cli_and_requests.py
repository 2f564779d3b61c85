"""Tests for the Request utilities and communicator status."""

from repro._units import KiB
from repro.cluster import Cluster
from repro.mpi.request import Request


class TestRequestUtilities:
    def test_waitall_returns_in_request_order(self):
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                bufs = [ctx.alloc(64) for _ in range(3)]
                reqs = []
                for i, buf in enumerate(bufs):
                    buf.fill(i + 1)
                    reqs.append(comm.isend(buf, dest=1, tag=i))
                yield from Request.waitall(reqs)
                return "sent"
            statuses = []
            reqs = []
            bufs = [ctx.alloc(64) for _ in range(3)]
            for i, buf in enumerate(bufs):
                reqs.append(comm.irecv(buf, source=0, tag=i))
            statuses = yield from Request.waitall(reqs)
            return [(s.tag, buf.read(0, 1)[0]) for s, buf in zip(statuses, bufs)]

        run = Cluster(n_nodes=2).run(program)
        assert run.results[1] == [(0, 1), (1, 2), (2, 3)]

    def test_test_method(self):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(128 * KiB)
            if comm.rank == 0:
                req = comm.isend(buf, dest=1, tag=0)
                done_early, _ = req.test()
                assert not done_early  # rendezvous can't finish instantly
                yield from req.wait()
                done_late, _ = req.test()
                return done_late
            yield from comm.recv(buf, source=0, tag=0)
            return None

        run = Cluster(n_nodes=2).run(program)
        assert run.results[0] is True

    def test_failed_request_raises_on_test(self):
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                buf = ctx.alloc(64)
                req = comm.isend(buf, dest=1, tag=0)
                ctx.cluster.fabric.fail_node(1)
                try:
                    yield from req.wait()
                except Exception:
                    return "failed"
                return "ok"
            yield ctx.cluster.engine.timeout(10000.0)
            return None

        # The send is a short message; delivered before the failure —
        # either outcome is legal; the point is no hang/crash.
        run = Cluster(n_nodes=2).run(program)
        assert run.results[0] in ("ok", "failed")


class TestStatusLocalization:
    def test_subcomm_status_sources_are_local(self):
        def program(ctx):
            comm = ctx.comm
            sub = yield from comm.split(comm.rank % 2, key=comm.rank)
            buf = ctx.alloc(32)
            if sub.rank == 0:
                buf.fill(7)
                yield from sub.send(buf, dest=1, tag=0)
                return None
            status = yield from sub.recv(buf, source=0, tag=0)
            # World rank of the sender is 0 or 1; local source must be 0.
            return status.source

        run = Cluster(n_nodes=4).run(program)
        assert run.results[2] == 0 and run.results[3] == 0
