"""Tests for scatter / alltoall / reduce_scatter_block and collective edges."""

import numpy as np
import pytest

from repro._units import KiB
from repro.cluster import Cluster
from repro.hardware.sci.topology import RingOfRings
from repro.mpi.coll import OPS
from repro.mpi.datatypes import BYTE, DOUBLE, INT
from repro.mpi.errors import MPIError


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


# -- reductions that borrow memory and give it back ---------------------------

RINGLETS = (2, 4)       # RingOfRings shape of the hierarchical cases

CLUSTERS = {
    "ring-8": lambda: Cluster(n_nodes=8),
    "smp-4x2": lambda: Cluster(n_nodes=4, procs_per_node=2),
    "ringlets-2x4": lambda: Cluster(n_nodes=8, topology=RingOfRings(*RINGLETS)),
}

#: One call of each collective that borrows scratch; ``part`` is one
#: rank's block of ``send``.
BORROWERS = {
    "barrier": lambda comm, send, recv, part: comm.barrier(),
    "reduce-root0": lambda comm, send, recv, part: comm.reduce(send, recv, root=0),
    "reduce-root2": lambda comm, send, recv, part: comm.reduce(send, recv, root=2),
    "allreduce": lambda comm, send, recv, part: comm.allreduce(send, recv),
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
            send, recv = ctx.alloc(512 * comm.size), ctx.alloc(512 * comm.size)
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
        # Two user buffers and at most one receive scratch per node.
        user = cluster.nodes[1].space.allocated
        assert [n.space.allocated - user for n in cluster.nodes] == [
            nbytes, 0, nbytes, 0]

    def test_leaf_ranks_borrow_nothing(self):
        nbytes = 64 * KiB

        def program(ctx):
            comm = ctx.comm
            send, recv = ctx.alloc(nbytes), ctx.alloc(nbytes)
            before = ctx.node.space.allocated
            yield from comm.allreduce(send, recv)
            return ctx.node.space.allocated - before, len(comm.device.free_scratch)

        results = Cluster(n_nodes=8).run(program).results
        # Odd ranks have no children; the others received into one scratch.
        assert results == [(nbytes, 1), (0, 0)] * 4

    def test_scratch_comes_back_when_a_send_aborts(self):
        """Rank 2 of a 4-rank reduce holds both of its scratch buffers
        when its send to the root is given up on."""
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
                return (ctx.node.space.allocated - before,
                        sorted(map(len, comm.device.free_scratch)))
            return "completed"

        cluster = Cluster(n_nodes=4, faults=LinkDown(
            seed=1, transient_rate=1.0, max_consecutive=10**9))
        procs = cluster.launch(program)
        with pytest.raises(Deadlock):       # the root waits for rank 2 for ever
            cluster.engine.run()
        assert procs[2].value == (2 * nbytes, [nbytes, nbytes])
        assert procs[1].value == procs[3].value == "completed"

    @pytest.mark.parametrize("name", sorted(BORROWERS))
    def test_scratch_comes_back_when_the_generator_is_thrown_into(self, name):
        class Boom(Exception):
            pass

        def program(ctx):
            comm = ctx.comm
            part = ctx.alloc(512)
            send, recv = ctx.alloc(512 * comm.size), ctx.alloc(512 * comm.size)
            if comm.rank:
                return None
                yield
            before = ctx.node.space.allocated
            call = BORROWERS[name](comm, send, recv, part)
            next(call)                      # rank 0 now waits for a child
            held = ctx.node.space.allocated - before
            assert held > 0 and not comm.device.free_scratch
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
