"""Tests for scatter / alltoall / reduce_scatter_block and collective edges."""

import numpy as np
import pytest

from repro._units import KiB
from repro.cluster import Cluster
from repro.mpi.datatypes import DOUBLE


class TestScatter:
    @pytest.mark.parametrize("root", [0, 2])
    def test_scatter_pieces(self, root):
        def program(ctx, root=root):
            comm = ctx.comm
            recv = ctx.alloc(16)
            send = None
            if comm.rank == root:
                send = ctx.alloc(16 * comm.size)
                for r in range(comm.size):
                    send.slice(r * 16, 16).fill(r + 1)
            yield from comm.scatter(send, recv, root=root)
            return recv.read(0, 1)[0]

        run = Cluster(n_nodes=4).run(program)
        assert run.results == [1, 2, 3, 4]


class TestAlltoall:
    def test_full_exchange(self):
        def program(ctx):
            comm = ctx.comm
            n = 32
            send = ctx.alloc(n * comm.size)
            recv = ctx.alloc(n * comm.size)
            for peer in range(comm.size):
                send.slice(peer * n, n).fill(comm.rank * 10 + peer)
            yield from comm.alltoall(send, recv)
            return [recv.read(peer * n, 1)[0] for peer in range(comm.size)]

        run = Cluster(n_nodes=4).run(program)
        # recv[src] at rank r must be src*10 + r.
        for r, values in enumerate(run.results):
            assert values == [src * 10 + r for src in range(4)]

    def test_single_rank(self):
        def program(ctx):
            comm = ctx.comm
            send = ctx.alloc(8)
            recv = ctx.alloc(8)
            send.fill(9)
            yield from comm.alltoall(send, recv)
            return recv.read(0, 1)[0]

        assert Cluster(n_nodes=1).run(program).results == [9]


class TestReduceScatterBlock:
    def test_sum_blocks(self):
        def program(ctx):
            comm = ctx.comm
            count = 4  # doubles per block
            send = ctx.alloc(count * 8 * comm.size)
            recv = ctx.alloc(count * 8)
            view = send.as_array(np.float64)
            view[:] = comm.rank + 1  # every element contributes rank+1
            yield from comm.reduce_scatter_block(send, recv, op="sum",
                                                 datatype=DOUBLE, count=count)
            return list(recv.as_array(np.float64))

        run = Cluster(n_nodes=3).run(program)
        for values in run.results:
            assert values == [6.0] * 4  # 1+2+3


class TestCollectiveEdges:
    def test_reduce_min_max(self):
        def program(ctx):
            comm = ctx.comm
            send = ctx.alloc(8)
            recv = ctx.alloc(8)
            send.as_array(np.float64)[0] = float(comm.rank)
            yield from comm.reduce(send, recv, root=0, op="max")
            result_max = float(recv.as_array(np.float64)[0]) if comm.rank == 0 else None
            yield from comm.reduce(send, recv, root=0, op="min")
            result_min = float(recv.as_array(np.float64)[0]) if comm.rank == 0 else None
            return (result_max, result_min)

        run = Cluster(n_nodes=4).run(program)
        assert run.results[0] == (3.0, 0.0)

    def test_bcast_large_message(self):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(256 * KiB)
            if comm.rank == 1:
                buf.read()[:] = np.arange(256 * KiB, dtype=np.uint8) % 253
            yield from comm.bcast(buf, root=1)
            return int(buf.read(100, 1)[0])

        run = Cluster(n_nodes=4).run(program)
        assert all(v == 100 % 253 for v in run.results)

    def test_barrier_single_rank(self):
        def program(ctx):
            yield from ctx.comm.barrier()
            return "done"

        assert Cluster(n_nodes=1).run(program).results == ["done"]

    def test_allreduce_prod(self):
        def program(ctx):
            comm = ctx.comm
            send = ctx.alloc(8)
            recv = ctx.alloc(8)
            send.as_array(np.float64)[0] = float(comm.rank + 1)
            yield from comm.allreduce(send, recv, op="prod")
            return float(recv.as_array(np.float64)[0])

        run = Cluster(n_nodes=4).run(program)
        assert all(v == 24.0 for v in run.results)

    def test_unknown_op_rejected(self):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(8)
            yield from comm.reduce(buf, buf, op="median")

        with pytest.raises(ValueError):
            Cluster(n_nodes=2).run(program)


class TestLocalityGroups:
    """The collectives' locality groups are resolved once per communicator
    group and shared; results and timings are what the per-call walk gave."""

    @staticmethod
    def _run(hierarchical, program):
        from repro.hardware.sci.topology import RingOfRings
        from repro.mpi.flatten import reset_plan_cache
        from repro.mpi.transport.policy import ChunkedCollectivesPolicy

        reset_plan_cache()
        topology = RingOfRings(3, 4)
        cluster = Cluster(n_nodes=topology.n_nodes, topology=topology,
                          policy=ChunkedCollectivesPolicy(hier_collectives=hierarchical))
        return cluster, cluster.run(program)

    def test_groups_are_shared_and_per_communicator(self):
        from repro.mpi.coll.collectives import _topology_groups

        def program(ctx):
            comm = ctx.comm
            world_groups = _topology_groups(comm)
            assert _topology_groups(comm) is world_groups
            sub = yield from comm.split(color=comm.rank % 2)
            sub_groups = _topology_groups(sub)
            assert _topology_groups(sub) is sub_groups
            ringlet = yield from comm.split(color=comm.rank // 4)
            assert _topology_groups(ringlet) is None  # a single domain
            return world_groups, sub.group, sub_groups

        cluster, run = self._run(True, program)
        world_groups = run.results[0][0]
        assert world_groups == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))
        assert all(groups is world_groups for groups, _, _ in run.results)
        evens, odds = run.results[0], run.results[1]
        assert evens[1] == tuple(range(0, 12, 2)) and odds[1] == tuple(range(1, 12, 2))
        # Comm-local ranks: the same shape for both halves, one entry each.
        assert evens[2] == odds[2] == ((0, 1), (2, 3), (4, 5))
        assert evens[2] is not odds[2]
        memo = cluster.world.locality_groups
        assert set(memo) == {tuple(range(12)), evens[1], odds[1],
                             (0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)}

    @pytest.mark.parametrize("hierarchical, bcast_us, allreduce_us", [
        # Simulated µs measured with the per-call walk (parent commit).
        (True, 3828.5009638554207, 8615.477168674703),
        (False, 7339.086847389551, 14356.103614457861),
    ])
    def test_bcast_and_allreduce_are_unchanged(self, hierarchical, bcast_us,
                                               allreduce_us):
        from repro.mpi.datatypes import BYTE

        nbytes = 96 * KiB
        pattern = (np.arange(nbytes) % 251).astype(np.uint8)

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(nbytes)
            recv = ctx.alloc(nbytes)
            if comm.rank == 5:
                buf.read()[:] = pattern
            t0 = ctx.now
            yield from comm.bcast(buf, root=5)
            t1 = ctx.now
            got = buf.read().copy()
            buf.read()[:] = pattern + np.uint8(comm.rank)  # wraps mod 256
            yield from comm.allreduce(buf, recv, op="sum", datatype=BYTE)
            return got, recv.read().copy(), t1 - t0, ctx.now - t1

        _, run = self._run(hierarchical, program)
        n = 12
        total = (n * pattern.astype(np.int64) + n * (n - 1) // 2) % 256
        for got, reduced, _, _ in run.results:
            assert np.array_equal(got, pattern)
            assert np.array_equal(reduced, total.astype(np.uint8))
        assert max(r[2] for r in run.results) == bcast_us
        assert max(r[3] for r in run.results) == allreduce_us
