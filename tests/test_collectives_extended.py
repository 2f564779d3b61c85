"""Tests for scatter / alltoall / reduce_scatter_block and collective edges."""

import dataclasses

import numpy as np
import pytest

from repro._units import KiB
from repro.cluster import Cluster
from repro.hardware.sci.topology import RingOfRings
from repro.mpi.coll import OPS
from repro.mpi.datatypes import BYTE, DOUBLE, INT, Vector
from repro.mpi.errors import MPIError
from repro.mpi.pt2pt.config import DEFAULT_PROTOCOL, NonContigMode


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


class TestGather:
    @pytest.mark.parametrize("root", [0, 2])
    def test_gather_pieces(self, root):
        def program(ctx, root=root):
            comm = ctx.comm
            send = ctx.alloc(16)
            send.fill(comm.rank + 1)
            recv = ctx.alloc(16 * comm.size) if comm.rank == root else None
            yield from comm.gather(send, recv, root=root)
            return None if recv is None else recv.tobytes()

        run = Cluster(n_nodes=4).run(program)
        assert run.results[root] == b"".join(bytes([r + 1]) * 16 for r in range(4))
        assert [r for i, r in enumerate(run.results) if i != root] == [None] * 3


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

        cluster = self._cluster("hier-3x4")
        run = cluster.run(program)
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

    @staticmethod
    def _cluster(case):
        from repro.mpi.transport.policy import ChunkedCollectivesPolicy

        if case == "default-ring8":
            return Cluster(n_nodes=8)
        if case.endswith("-2"):
            policy = ChunkedCollectivesPolicy() if case == "chunked-2" else None
            return Cluster(n_nodes=2, policy=policy)
        topology = RingOfRings(3, 4)
        return Cluster(n_nodes=topology.n_nodes, topology=topology,
                       policy=ChunkedCollectivesPolicy(
                           hier_collectives=not case.startswith("flat")))

    @pytest.mark.parametrize("case, root, count, bcast_us, allreduce_us, events", [
        # Simulated µs and engine events.  The two 96 KiB rows on
        # RingOfRings(3, 4) chain: the three leaders by the verdict (their
        # reduce too), the flat broadcast because the policy forces it.
        ("hier-3x4", 5, 96 * KiB, 3506.9508835341358, 7649.926927710847, 873),
        ("flat-3x4", 5, 96 * KiB, 7312.036847389557, 14316.55361445784, 941),
        # The default policy's binomial tree.
        ("default-ring8", 3, 96 * KiB, 2870.5357228915664, 5819.826923543965, 549),
        # Two ranks have no chain to pipeline: the chunked policy's
        # broadcast is the binomial tree.
        ("default-2", 1, 96 * KiB, 956.5252409638556, 1913.0504819277107, 81),
        ("chunked-2", 1, 96 * KiB, 956.5252409638556, 1913.0504819277107, 81),
        # An empty allreduce keeps the hierarchical message pattern.
        ("hier-3x4", 5, 0, 5.500000000000001, 11.2, 234),
    ])
    def test_bcast_and_allreduce_are_unchanged(self, case, root, count,
                                               bcast_us, allreduce_us, events):
        from repro.mpi.flatten import reset_plan_cache

        nbytes = 96 * KiB
        pattern = (np.arange(nbytes) % 251).astype(np.uint8)

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(nbytes)
            recv = ctx.alloc(nbytes)
            if comm.rank == root:
                buf.read()[:] = pattern
            t0 = ctx.now
            yield from comm.bcast(buf, root=root, datatype=BYTE, count=count)
            t1 = ctx.now
            got = buf.read().copy()
            buf.read()[:] = pattern + np.uint8(comm.rank)  # wraps mod 256
            yield from comm.allreduce(buf, recv, op="sum", datatype=BYTE,
                                      count=count)
            return got, recv.read().copy(), t1 - t0, ctx.now - t1

        reset_plan_cache()
        cluster = self._cluster(case)
        run = cluster.run(program)
        n = len(run.results)
        total = (n * pattern.astype(np.int64) + n * (n - 1) // 2) % 256
        for got, reduced, _, _ in run.results:
            assert np.array_equal(got[:count], pattern[:count])
            assert np.array_equal(reduced[:count], total[:count].astype(np.uint8))
        assert max(r[2] for r in run.results) == bcast_us
        assert max(r[3] for r in run.results) == allreduce_us
        assert cluster.engine.events_processed == events


# -- reductions that borrow memory and give it back ---------------------------

RINGLETS = (2, 4)       # RingOfRings shape of the hierarchical cases

CLUSTERS = {
    "ring-8": lambda: Cluster(n_nodes=8),
    "smp-4x2": lambda: Cluster(n_nodes=4, procs_per_node=2),
    "ringlets-2x4": lambda: Cluster(n_nodes=8, topology=RingOfRings(*RINGLETS)),
}

#: Bytes of ``send`` and ``recv``: four rendezvous chunks, so a reduction
#: of all of them chains on four and on eight ranks.
CHAINED = 256 * KiB

#: One call of each collective that borrows scratch (``allreduce`` no
#: longer does; it stays so that a borrow it starts again would show);
#: ``part`` is one rank's block of ``send``.  Each reduces 64 doubles per
#: rank but the chained reduce, whose forwarders borrow one accumulator.
BORROWERS = {
    "barrier": lambda comm, send, recv, part: comm.barrier(),
    "reduce-root0": lambda comm, send, recv, part: comm.reduce(
        send, recv, root=0, count=64 * comm.size),
    "reduce-root2": lambda comm, send, recv, part: comm.reduce(
        send, recv, root=2, count=64 * comm.size),
    "reduce-root2-chained":
        lambda comm, send, recv, part: comm.reduce(send, recv, root=2),
    "allreduce": lambda comm, send, recv, part: comm.allreduce(
        send, recv, count=64 * comm.size),
    "reduce_scatter_block":
        lambda comm, send, recv, part: comm.reduce_scatter_block(send, part),
}


class TestBorrowedScratch:
    """A collective's scratch comes from the rank's free list and goes
    back to it, so the footprint of a loop is the footprint of one call
    (the parent leaked one payload-sized buffer per rank and call)."""

    @staticmethod
    def _footprint(make_cluster, call, calls):
        def program(ctx):
            comm = ctx.comm
            part = ctx.alloc(512)
            send, recv = ctx.alloc(CHAINED), ctx.alloc(CHAINED)
            send.as_array(np.float64)[:] = comm.rank + 1.0
            for _ in range(calls):
                yield from call(comm, send, recv, part)

        cluster = make_cluster()
        cluster.run(program)
        return [node.space.allocated for node in cluster.nodes]

    @pytest.mark.parametrize("shape", ["ring-8", "smp-4x2", "ringlets-2x4"])
    @pytest.mark.parametrize("name", sorted(BORROWERS))
    def test_ten_calls_allocate_what_one_does(self, name, shape):
        make_cluster = CLUSTERS[shape]
        once = self._footprint(make_cluster, BORROWERS[name], 1)
        assert self._footprint(make_cluster, BORROWERS[name], 10) == once

    def test_forty_large_allreduces_fit(self):
        """40 x 4 MiB on 96 MiB address spaces: `OutOfMemory` at call 22
        when every call kept its scratch."""
        nbytes, calls = 4 * 1024 * KiB, 40
        pattern = (np.arange(nbytes) % 251).astype(np.uint8)

        def program(ctx):
            comm = ctx.comm
            send, recv = ctx.alloc(nbytes), ctx.alloc(nbytes)
            send.write(pattern + np.uint8(comm.rank))
            for _ in range(calls):
                recv.fill(0)
                yield from comm.allreduce(send, recv, datatype=BYTE)
            return recv.read().copy()

        cluster = Cluster(n_nodes=4)
        total = (4 * pattern.astype(np.int64) + 6) % 256
        for reduced in cluster.run(program).results:
            assert np.array_equal(reduced, total.astype(np.uint8))
        # The two user buffers and nothing else: children fold into recv.
        user = cluster.nodes[1].space.allocated
        assert [n.space.allocated - user for n in cluster.nodes] == [0] * 4

    def test_allreduce_borrows_nothing(self):
        nbytes = 64 * KiB

        def program(ctx):
            comm = ctx.comm
            send, recv = ctx.alloc(nbytes), ctx.alloc(nbytes)
            before = ctx.node.space.allocated
            yield from comm.allreduce(send, recv)
            return ctx.node.space.allocated - before, len(comm.device.free_scratch)

        results = Cluster(n_nodes=8).run(program).results
        # Odd ranks have no children; the others fold theirs into recv.
        assert results == [(0, 0)] * 8

    def test_scratch_comes_back_when_a_send_aborts(self):
        """Rank 2 of a 4-rank reduce holds its accumulator scratch (it
        may not write ``sendbuf``) when its send to the root is given up
        on; its child folded straight into that scratch."""
        from repro.hardware.sci.faults import FaultPlan
        from repro.mpi.errors import TransferAborted
        from repro.sim import Deadlock

        class LinkDown(FaultPlan):
            def draw_transfer(self, src, dst, nbytes, tearable=False):
                if (src, dst) != (2, 0):
                    return None
                return super().draw_transfer(src, dst, nbytes, tearable)

        nbytes = 8 * KiB

        def program(ctx):
            comm = ctx.comm
            send = ctx.alloc(nbytes)
            before = ctx.node.space.allocated
            try:
                yield from comm.reduce(send, None, root=0)
            except TransferAborted:
                # Eager slots a sender exported here on first contact are
                # the only other allocation.
                eager = sum(r.nbytes for r in comm.device.eager_regions.values())
                return (ctx.node.space.allocated - before - eager,
                        sorted(map(len, comm.device.free_scratch)))
            return "completed"

        cluster = Cluster(n_nodes=4, faults=LinkDown(
            seed=1, transient_rate=1.0, max_consecutive=10**9))
        procs = cluster.launch(program)
        with pytest.raises(Deadlock):       # the root waits for rank 2 for ever
            cluster.engine.run()
        assert procs[2].value == (nbytes, [nbytes])
        assert procs[1].value == procs[3].value == "completed"

    @pytest.mark.parametrize("name", sorted(BORROWERS))
    def test_scratch_comes_back_when_the_generator_is_thrown_into(self, name):
        class Boom(Exception):
            pass

        def program(ctx):
            comm = ctx.comm
            part = ctx.alloc(512)
            send, recv = ctx.alloc(CHAINED), ctx.alloc(CHAINED)
            if comm.rank:
                return None
                yield
            before = ctx.node.space.allocated
            call = BORROWERS[name](comm, send, recv, part)
            next(call)                      # rank 0 now waits for a child
            held = ctx.node.space.allocated - before
            # Rank 0 accumulates in recv when it is the reduction's root.
            assert (held == 0) == (name in ("allreduce", "reduce-root0"))
            assert not comm.device.free_scratch
            with pytest.raises(Boom):
                call.throw(Boom())
            assert ctx.node.space.allocated - before == held
            return held, sum(map(len, comm.device.free_scratch))

        held, free = Cluster(n_nodes=4).run(program).results[0]
        assert held == free


def _binomial(ufunc, parts):
    """Fold ``parts`` (the root's first) in the binomial tree's order:
    every position folds its children, nearest first, into its own."""
    m = len(parts)

    def subtree(rel):
        acc = parts[rel].copy()
        mask = 1
        while mask < m and not rel & mask:
            if rel | mask < m:
                acc = ufunc(acc, subtree(rel | mask))
            mask <<= 1
        return acc

    return subtree(0)


def _chain(ufunc, parts):
    """Fold ``parts`` (the root's first) in the chain's order: it starts
    after the root, and every member, the root last, folds what it
    receives into its own."""
    acc = parts[1 % len(parts)].copy()
    for part in parts[2:] + parts[:1]:
        acc = ufunc(part, acc)
    return acc


class TestReductionSemantics:
    """What the in-place data path computes: every operator, three
    dtypes, communicators of 1-8 ranks, flat and hierarchical."""

    COUNT = 300
    #: World ranks in the order they join as the communicator grows, so
    #: that 3, 5 and 8 ranks span both ringlets of ``RINGLETS``.
    JOIN_ORDER = (0, 4, 1, 5, 2, 6, 3, 7)

    @classmethod
    def _contribution(cls, world_rank, np_dtype):
        rng = np.random.default_rng([19, world_rank])
        if np_dtype.kind == "f":    # mixed magnitudes: the order shows
            return (rng.standard_normal(cls.COUNT)
                    * 10.0 ** rng.integers(-6, 7, cls.COUNT))
        return rng.integers(0, 128, cls.COUNT).astype(np_dtype)

    @classmethod
    def _expected_allreduce(cls, ufunc, members, parts, hierarchical):
        groups = [[r for r in members if r // RINGLETS[1] == g]
                  for g in range(RINGLETS[0])]
        groups = [g for g in groups if g]
        if not hierarchical or len(groups) < 2 or len(members) <= len(groups):
            return _binomial(ufunc, [parts[r] for r in members])
        return _binomial(ufunc, [_binomial(ufunc, [parts[r] for r in g])
                                 for g in groups])

    @pytest.mark.parametrize("shape", ["ring-8", "ringlets-2x4"])
    @pytest.mark.parametrize("op, dtype", [
        pytest.param(op, dtype, id=f"{op}-{dtype.name}")
        for op in sorted(OPS) for dtype in (BYTE, INT, DOUBLE)
        # The bitwise operators are defined on integers.
        if not (op.startswith("b") and dtype is DOUBLE)])
    def test_every_op_dtype_size_and_root(self, op, dtype, shape):
        np_dtype = dtype.np_dtype
        ufunc = OPS[op]
        parts = {r: self._contribution(r, np_dtype) for r in self.JOIN_ORDER}
        nbytes = self.COUNT * dtype.size

        def program(ctx):
            world = ctx.comm
            mine = parts[world.rank]
            send, recv, both = (ctx.alloc(nbytes) for _ in range(3))
            for size in (1, 2, 3, 5, 8):
                members = sorted(self.JOIN_ORDER[:size])
                comm = yield from world.split(
                    color=0 if world.rank in members else None)
                if comm is None:
                    continue
                for root in sorted({0, size - 1}):
                    order = [parts[members[(root + i) % size]]
                             for i in range(size)]
                    expected = _binomial(ufunc, order).view(np.uint8)
                    send.write(mine)
                    recv.fill(0xA5)
                    yield from comm.reduce(send, recv, root=root, op=op,
                                           datatype=dtype)
                    assert np.array_equal(send.read(), mine.view(np.uint8))
                    if comm.rank == root:
                        assert np.array_equal(recv.read(), expected)
                    else:       # not significant there, and not touched
                        assert (recv.read() == 0xA5).all()
                    both.write(mine)    # in place: the root has no recvbuf
                    yield from comm.reduce(both, None, root=root, op=op,
                                           datatype=dtype)
                    assert np.array_equal(
                        both.read(),
                        expected if comm.rank == root else mine.view(np.uint8))
                expected = self._expected_allreduce(
                    ufunc, members, parts, shape != "ring-8").view(np.uint8)
                recv.fill(0xA5)
                yield from comm.allreduce(send, recv, op=op, datatype=dtype)
                assert np.array_equal(send.read(), mine.view(np.uint8))
                assert np.array_equal(recv.read(), expected)
                both.write(mine)
                yield from comm.allreduce(both, both, op=op, datatype=dtype)
                assert np.array_equal(both.read(), expected)
            return True

        assert all(CLUSTERS[shape]().run(program).results)

    #: Four rendezvous chunks and a tail: every stage of four or more
    #: members chains, the two leaders of ``ringlets-2x4`` keep the tree.
    CHAINED = 256 * KiB + 24

    @pytest.mark.parametrize("shape", ["ring-8", "ringlets-2x4"])
    @pytest.mark.parametrize("op, dtype", [("sum", DOUBLE), ("bxor", INT)],
                             ids=["sum-MPI_DOUBLE", "bxor-MPI_INT"])
    def test_chained_stages_fold_in_the_chain_order(self, op, dtype, shape):
        ufunc = OPS[op]
        count = self.CHAINED // dtype.size
        rng = np.random.default_rng(23)
        if dtype is DOUBLE:
            parts = [rng.standard_normal(count) * 10.0 ** rng.integers(-6, 7, count)
                     for _ in range(8)]
        else:
            parts = [rng.integers(0, 1 << 30, count).astype(np.int32)
                     for _ in range(8)]
        if shape == "ring-8":
            allreduced = _chain(ufunc, parts)
        else:
            allreduced = _binomial(ufunc, [_chain(ufunc, parts[:4]),
                                           _chain(ufunc, parts[4:])])

        def program(ctx):
            comm = ctx.comm
            mine = parts[comm.rank].view(np.uint8)
            send, recv = ctx.alloc(self.CHAINED), ctx.alloc(self.CHAINED)
            send.write(mine)
            for root in (0, 5):
                recv.fill(0xA5)
                yield from comm.reduce(send, recv, root=root, op=op,
                                       datatype=dtype)
                expected = _chain(ufunc, parts[root:] + parts[:root])
                assert np.array_equal(send.read(), mine)
                if comm.rank == root:
                    assert np.array_equal(recv.read(), expected.view(np.uint8))
                else:
                    assert (recv.read() == 0xA5).all()
            yield from comm.allreduce(send, recv, op=op, datatype=dtype)
            assert np.array_equal(send.read(), mine)
            return np.array_equal(recv.read(), allreduced.view(np.uint8))

        assert all(CLUSTERS[shape]().run(program).results)

    #: ``float64`` sums of ``_golden_input`` as the parent commit (heap
    #: accumulators, a new array per fold) produced them.
    GOLDEN = {
        ("ring", 5): {
            "reduce-first": ["0x1.8000000000000p+0", "0x1.1c37937e08003p+53",
                             "0x1.17c57c57c57c5p+0", "0x1.e800000000000p+5"],
            "reduce-last": ["0x1.8000000000000p+0", "0x1.1c37937e08003p+53",
                            "0x1.17c57c57c57c6p+0", "0x1.e800000000000p+5"],
            "allreduce": ["0x1.8000000000000p+0", "0x1.1c37937e08003p+53",
                          "0x1.17c57c57c57c5p+0", "0x1.e800000000000p+5"],
        },
        ("ring", 8): {
            "reduce-first": ["0x1.ccccccccccccdp+1", "0x1.1c37937e08004p+53",
                             "0x1.6dd0dd0dd0dd0p+0", "-0x1.9a00000000000p+10"],
            "reduce-last": ["0x1.ccccccccccccdp+1", "0x1.1c37937e08004p+53",
                            "0x1.6dd0dd0dd0dd1p+0", "-0x1.9a00000000000p+10"],
            "allreduce": ["0x1.ccccccccccccdp+1", "0x1.1c37937e08004p+53",
                          "0x1.6dd0dd0dd0dd0p+0", "-0x1.9a00000000000p+10"],
        },
        # Two ringlets of three: the hierarchical order differs from the
        # flat one in the second element.
        ("ringlets", 6): {
            "reduce-first": ["0x1.0cccccccccccdp+1", "0x1.1c37937e08003p+53",
                             "0x1.37c57c57c57c5p+0", "-0x1.6c00000000000p+7"],
            "reduce-last": ["0x1.0cccccccccccdp+1", "0x1.1c37937e08003p+53",
                            "0x1.37c57c57c57c6p+0", "-0x1.6c00000000000p+7"],
            "allreduce": ["0x1.0cccccccccccdp+1", "0x1.1c37937e08004p+53",
                          "0x1.37c57c57c57c5p+0", "-0x1.6c00000000000p+7"],
        },
    }

    @staticmethod
    def _golden_input(rank):
        return np.array([0.1 * (rank + 1),
                         1e16 if rank == 0 else 1.0 + rank * 1e-3,
                         1.0 / (rank + 3), (-1.0) ** rank * 3.0 ** rank])

    @pytest.mark.parametrize("fabric, size", sorted(GOLDEN))
    def test_float_sums_equal_the_parent_commit(self, fabric, size):
        def program(ctx):
            comm = ctx.comm
            send, recv = ctx.alloc(32), ctx.alloc(32)
            send.as_array(np.float64)[:] = self._golden_input(comm.rank)
            got = {}
            for name, root in (("reduce-first", 0), ("reduce-last", size - 1)):
                yield from comm.reduce(send, recv, root=root)
                if comm.rank == root:
                    got[name] = [x.hex() for x in recv.as_array(np.float64)]
            yield from comm.allreduce(send, recv)
            got["allreduce"] = [x.hex() for x in recv.as_array(np.float64)]
            return got

        topology = RingOfRings(2, size // 2) if fabric == "ringlets" else None
        results = Cluster(n_nodes=size, topology=topology).run(program).results
        golden = self.GOLDEN[fabric, size]
        for got in results:
            assert got == {name: golden[name] for name in got}
        assert set(results[0]) | set(results[-1]) == set(golden)

    def test_allreduce_creates_no_payload_sized_heap_array(self):
        """`tracemalloc` peak over a 1 MiB allreduce on 8 ranks: below two
        payloads (the transport's in-flight stream-window pack buffer is
        its own); about nine with heap accumulators and a new array per
        fold."""
        import tracemalloc

        nbytes = 1024 * KiB

        def program(ctx):
            send, recv = ctx.alloc(nbytes), ctx.alloc(nbytes)
            send.fill(ctx.comm.rank + 1)
            yield from ctx.comm.allreduce(send, recv, datatype=BYTE)
            return int(recv.read(nbytes - 1, 1)[0])

        cluster = Cluster(n_nodes=8)
        tracemalloc.start()
        try:
            results = cluster.run(program).results
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert results == [36] * 8
        assert peak < 2 * nbytes


class TestFoldOnLanding:
    """A reduction receive folds each child's contribution into the
    accumulator where its bytes land, each element exactly once: torn
    chunks resumed below the tear, or resent whole, must not fold their
    repeated bytes twice (see ``docs/FAULTS.md``)."""

    #: (datatype, message bytes): four 64 KiB chunks and a 24 B tail of
    #: doubles, whose torn prefixes end mid-element; an odd byte count.
    CASES = [(DOUBLE, 256 * KiB + 24), (BYTE, 200 * KiB + 3)]

    @staticmethod
    def _contribution(rank, dtype, nbytes):
        rng = np.random.default_rng([29, rank])
        count = nbytes // dtype.size
        if dtype is DOUBLE:     # mixed magnitudes: the order shows
            return rng.standard_normal(count) * 10.0 ** rng.integers(-6, 7, count)
        return rng.integers(0, 256, count).astype(np.uint8)

    @classmethod
    def _allreduce(cls, dtype, nbytes, **cluster):
        def program(ctx):
            comm = ctx.comm
            send, recv = ctx.alloc(max(nbytes, 1)), ctx.alloc(max(nbytes, 1))
            send.write(cls._contribution(comm.rank, dtype, nbytes).view(np.uint8))
            recv.fill(0xA5)
            yield from comm.allreduce(send, recv, datatype=dtype,
                                      count=nbytes // dtype.size)
            return recv.read(0, nbytes).copy()

        cluster = Cluster(n_nodes=4, **cluster)
        return cluster, cluster.run(program).results

    @classmethod
    def _expected(cls, dtype, nbytes, oracle=_binomial):
        parts = [cls._contribution(r, dtype, nbytes) for r in range(4)]
        return oracle(np.add, parts).view(np.uint8)

    @pytest.mark.parametrize("resume", [True, False], ids=["resume", "whole"])
    @pytest.mark.parametrize("dtype, nbytes", CASES,
                             ids=[d.name for d, _ in CASES])
    def test_torn_chunks_fold_once(self, dtype, nbytes, resume):
        """Four chunks over four ranks: the default reduce chains, each
        forwarder folding its predecessor's chunks as they land and
        sending them on; the forced tree folds its children.  Each must
        equal its own association order exactly."""
        from repro.hardware.sci.faults import FaultKind, FaultPlan
        from repro.mpi.transport import TransferPolicy

        from ._guidelines import Forced

        if dtype is DOUBLE:     # the two orders round differently
            assert not np.array_equal(self._expected(dtype, nbytes, _chain),
                                      self._expected(dtype, nbytes))
        for policy, oracle in ((TransferPolicy(resume_torn=resume), _chain),
                               (Forced(coll="tree", resume_torn=resume),
                                _binomial)):
            expected = self._expected(dtype, nbytes, oracle)
            _, clean = self._allreduce(dtype, nbytes, policy=policy)
            assert all(np.array_equal(got, expected) for got in clean)
            for seed in range(6):
                plan = FaultPlan(seed=seed, torn_rate=0.5)
                cluster, faulty = self._allreduce(dtype, nbytes, faults=plan,
                                                  policy=policy)
                assert plan.counters[FaultKind.TORN] > 0
                counts = [d.recovery for d in cluster.world.devices]
                assert sum(r["resumes" if resume else "retries"]
                           for r in counts) > 0
                for got in faulty:
                    assert np.array_equal(got, expected), (oracle, seed)

    @pytest.mark.parametrize("nbytes", [0, 104, 8000],
                             ids=["count-0", "short", "eager"])
    def test_short_and_eager_reductions(self, nbytes):
        from repro.hardware.sci.faults import FaultPlan

        expected = self._expected(DOUBLE, nbytes)
        for faults in (None, FaultPlan(seed=3, torn_rate=0.5)):
            _, results = self._allreduce(DOUBLE, nbytes, faults=faults)
            assert all(np.array_equal(got, expected) for got in results)

    def test_forced_dma_chunks_fold_into_the_receive(self):
        """A strided send under forced DMA packs and DMAs its chunks; they
        fold into the receive's one run as they land.  (A reduction's own
        ``BYTE`` messages are contiguous, so no mode reaches them.)"""
        protocol = dataclasses.replace(DEFAULT_PROTOCOL,
                                       noncontig_mode=NonContigMode.DMA)
        count = 3 * 8 * KiB + 5                 # doubles: 3 chunks and a tail
        strided = Vector(count, 1, 2, DOUBLE)
        source = np.arange(2 * count, dtype=np.float64)

        def program(ctx):
            buf = ctx.alloc(2 * count * 8)
            if ctx.comm.rank == 0:
                buf.write(source.view(np.uint8))
                yield from ctx.comm.send(buf, 1, datatype=strided, count=1)
                return None
            buf.as_array(np.float64)[:] = 0.5
            yield from ctx.comm.device.recv(
                buf, 0, 0, BYTE, count * 8, fold=(np.add, np.float64))
            return buf.as_array(np.float64).copy()

        got = Cluster(n_nodes=2, protocol=protocol).run(program).results[1]
        assert np.array_equal(got[:count], source[::2] + 0.5)
        assert (got[count:] == 0.5).all()

    def test_a_fold_needs_one_run(self):
        def program(ctx):
            buf = ctx.alloc(256)
            if ctx.comm.rank == 0:
                yield from ctx.comm.send(buf, 1, count=64)
                return None
            with pytest.raises(MPIError, match="single-run packed stream"):
                yield from ctx.comm.device.recv(
                    buf, 0, 0, Vector(8, 1, 2, DOUBLE), 1,
                    fold=(np.add, np.float64))
            yield from ctx.comm.recv(buf, 0, count=64)
            return "refused"

        assert Cluster(n_nodes=2).run(program).results[1] == "refused"


class TestReductionArguments:
    """Bad counts and buffers are refused on every rank before the first
    message; in place (the same range twice) stays legal."""

    #: name -> (call, blocks of ``count`` elements that ``sendbuf`` holds
    #: on the two ranks of the test).
    CALLS = {
        "reduce": (lambda comm, send, recv, count: comm.reduce(
            send, recv, datatype=BYTE, count=count), 1),
        "allreduce": (lambda comm, send, recv, count: comm.allreduce(
            send, recv, datatype=BYTE, count=count), 1),
        "reduce_scatter_block": (
            lambda comm, send, recv, count: comm.reduce_scatter_block(
                send, recv, datatype=BYTE, count=count), 2),
    }

    #: case -> what the error names.
    CASES = {
        "short-sendbuf": r"sendbuf of \d+ B cannot hold \d+ B \(count=512, 1 B",
        "short-recvbuf": r"recvbuf of 256 B cannot hold 512 B \(count=512, 1 B",
        "negative-count": r"sendbuf of \d+ B cannot hold -\d+ B \(count=-8, 1 B",
        "partial-overlap": r"overlap without being the same 512 B",
    }

    @staticmethod
    def _arguments(ctx, blocks, case):
        n = 512
        if case == "short-sendbuf":
            return ctx.alloc(blocks * n - 256), ctx.alloc(n), n
        if case == "short-recvbuf":
            return ctx.alloc(blocks * n), ctx.alloc(n - 256), n
        if case == "negative-count":
            return ctx.alloc(blocks * n), ctx.alloc(n), -8
        arena = ctx.alloc((blocks + 1) * n)
        return arena.slice(0, blocks * n), arena.slice(64, n), n

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_rejected_before_the_first_message(self, name, case):
        call, blocks = self.CALLS[name]

        def program(ctx):
            send, recv, count = self._arguments(ctx, blocks, case)
            with pytest.raises(MPIError, match=self.CASES[case]):
                yield from call(ctx.comm, send, recv, count)
            return ctx.comm.device.counters["sends"]

        assert Cluster(n_nodes=2).run(program).results == [0, 0]

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_an_op_the_datatype_cannot_take(self, name):
        """``band`` has no floating-point loop: refused on every rank,
        where the parent raised numpy's TypeError from an inner rank's
        fold after the leaves had sent."""
        blocks = self.CALLS[name][1]

        def program(ctx):
            send, recv = ctx.alloc(blocks * 512), ctx.alloc(512)
            with pytest.raises(ValueError, match="'band' is not defined on MPI_DOUBLE"):
                yield from getattr(ctx.comm, name)(
                    send, recv, op="band", datatype=DOUBLE, count=64)
            return ctx.comm.device.counters["sends"]

        assert Cluster(n_nodes=2).run(program).results == [0, 0]

    @pytest.mark.parametrize("name", ["reduce", "allreduce"])
    def test_the_same_range_twice_is_in_place(self, name):
        def program(ctx):
            arena = ctx.alloc(64)
            arena.fill(ctx.comm.rank + 1)
            yield from self.CALLS[name][0](
                ctx.comm, arena.slice(0, 32), arena.slice(0, 32), 32)
            return arena.tobytes()

        first, second = Cluster(n_nodes=2).run(program).results
        assert first == bytes([3]) * 32 + bytes([1]) * 32
        assert second[32:] == bytes([2]) * 32
        assert second[:32] == bytes([3 if name == "allreduce" else 2]) * 32


class TestBlockArguments:
    """Gather, scatter, allgather and alltoall refuse a buffer too small
    for their blocks (or a missing root buffer) with an MPIError before
    the first message, not an assertion or an out-of-bounds slice in the
    middle of the exchange."""

    N = 256  # bytes per block; two ranks

    #: name -> (call, blocks in ``sendbuf``, blocks in ``recvbuf``).
    CALLS = {
        "gather": (lambda comm, send, recv, count: comm.gather(
            send, recv, root=0, count=count), 1, 2),
        "scatter": (lambda comm, send, recv, count: comm.scatter(
            send, recv, root=0, count=count), 2, 1),
        "allgather": (lambda comm, send, recv, count: comm.allgather(
            send, recv, count=count), 1, 2),
        "alltoall": (lambda comm, send, recv, count: comm.alltoall(
            send, recv, count=count), 2, 2),
    }

    #: (call, case, what the error names, checked on the root only).
    CASES = [
        ("gather", "short-sendbuf", r"sendbuf of 255 B cannot hold 256 B", False),
        ("gather", "short-recvbuf", r"recvbuf of 511 B cannot hold 512 B", True),
        ("gather", "missing-recvbuf", r"recvbuf is required", True),
        ("gather", "negative-count", r"sendbuf of 256 B cannot hold -8 B", False),
        ("scatter", "short-sendbuf", r"sendbuf of 511 B cannot hold 512 B", True),
        ("scatter", "missing-sendbuf", r"sendbuf is required", True),
        ("scatter", "short-recvbuf", r"recvbuf of 255 B cannot hold 256 B", False),
        ("scatter", "negative-count", r"recvbuf of 256 B cannot hold -8 B", False),
        ("allgather", "short-sendbuf", r"sendbuf of 255 B cannot hold 256 B", False),
        ("allgather", "short-recvbuf", r"recvbuf of 511 B cannot hold 512 B", False),
        ("allgather", "negative-count", r"sendbuf of 256 B cannot hold -8 B", False),
        ("alltoall", "short-sendbuf", r"sendbuf of 511 B cannot hold 512 B", False),
        ("alltoall", "short-recvbuf", r"recvbuf of 511 B cannot hold 512 B", False),
        ("alltoall", "negative-count", r"sendbuf of 512 B cannot hold -16 B", False),
    ]

    @pytest.mark.parametrize("name, case, error, root_only", CASES,
                             ids=[f"{n}-{c}" for n, c, _, _ in CASES])
    def test_rejected_before_the_first_message(self, name, case, error,
                                               root_only):
        call, send_blocks, recv_blocks = self.CALLS[name]
        n = self.N

        def program(ctx):
            if root_only and ctx.comm.rank != 0:
                return 0  # the root fails before any message reaches it
            send = ctx.alloc(send_blocks * n - (case == "short-sendbuf"))
            recv = ctx.alloc(recv_blocks * n - (case == "short-recvbuf"))
            send = None if case == "missing-sendbuf" else send
            recv = None if case == "missing-recvbuf" else recv
            count = -8 if case == "negative-count" else n
            with pytest.raises(MPIError, match=error):
                yield from call(ctx.comm, send, recv, count)
            return ctx.comm.device.counters["sends"]

        assert Cluster(n_nodes=2).run(program).results == [0, 0]
