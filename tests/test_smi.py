"""Tests for the SMI shared-region and synchronization layer."""

import numpy as np
import pytest

from repro._units import KiB, MiB
from repro.hardware import Node
from repro.hardware.sci import AccessRun, RingTopology, SCIFabric
from repro.sim import Engine
from repro.smi import SMIBarrier, SMIContext, SMIError, SMIRWLock


def make_context(rank_to_node=(0, 1, 2, 3), n_nodes=4):
    eng = Engine()
    nodes = [Node(i, mem_size=8 * MiB) for i in range(n_nodes)]
    fabric = SCIFabric(eng, RingTopology(n_nodes))
    ctx = SMIContext(eng, fabric, nodes, list(rank_to_node))
    return eng, ctx


class TestRegions:
    def test_create_and_remote_write(self):
        eng, ctx = make_context()
        region = ctx.create_region(owner_rank=1, nbytes=4 * KiB)
        handle = region.handle(0)
        assert not handle.is_local
        payload = np.arange(128, dtype=np.uint8)

        def body():
            yield from handle.write_bytes(64, payload)
            yield from handle.barrier()

        eng.run_process(body())
        assert np.array_equal(region.local_view()[64:192], payload)

    def test_local_handle_for_same_node_rank(self):
        eng, ctx = make_context(rank_to_node=(0, 0, 1, 1), n_nodes=2)
        region = ctx.create_region(owner_rank=0, nbytes=1 * KiB)
        assert region.handle(1).is_local  # rank 1 shares node 0
        assert not region.handle(2).is_local

    def test_read_back(self):
        eng, ctx = make_context()
        region = ctx.create_region(owner_rank=2, nbytes=1 * KiB)
        region.local_view()[:8] = np.arange(8, dtype=np.uint8)
        handle = region.handle(0)

        def body():
            data = yield from handle.read_bytes(0, 8)
            return data

        data = eng.run_process(body())
        assert np.array_equal(data, np.arange(8, dtype=np.uint8))

    def test_remote_access_slower_than_local(self):
        eng, ctx = make_context(rank_to_node=(0, 0, 1), n_nodes=2)
        region = ctx.create_region(owner_rank=0, nbytes=256 * KiB)
        payload = np.zeros(128 * KiB, dtype=np.uint8)

        def timed(handle):
            t0 = eng.now
            yield from handle.write(payload, AccessRun.contiguous(0, payload.nbytes))
            return eng.now - t0

        t_local = eng.run_process(timed(region.handle(1)))
        t_remote = eng.run_process(timed(region.handle(2)))
        assert t_remote > t_local

    def test_bad_rank_rejected(self):
        _, ctx = make_context()
        with pytest.raises(SMIError):
            ctx.node_of(7)
        with pytest.raises(SMIError):
            ctx.create_region(owner_rank=9, nbytes=64)


class TestSMIRWLock:
    # Exclusive mode (the default) is the SMI spinlock the paper
    # describes: test and set word accesses, FIFO hand-over, poll latency.

    def test_exclusion_and_fifo(self):
        eng, ctx = make_context()
        lock = SMIRWLock(ctx, home_rank=0)
        trace = []

        def worker(rank, hold):
            yield from lock.acquire(rank)
            trace.append(("acq", rank, eng.now))
            yield eng.timeout(hold)
            yield from lock.release(rank)

        eng.process(worker(1, 50.0))
        eng.process(worker(2, 10.0))
        eng.run()
        assert [t[1] for t in trace] == [1, 2]
        assert trace[1][2] > trace[0][2] + 50.0
        assert lock.contended_acquires == 1

    def test_local_acquire_cheaper_than_remote(self):
        eng, ctx = make_context(rank_to_node=(0, 0, 1), n_nodes=2)
        lock = SMIRWLock(ctx, home_rank=0)

        def timed(rank):
            t0 = eng.now
            yield from lock.acquire(rank)
            dt = eng.now - t0
            yield from lock.release(rank)
            return dt

        t_local = eng.run_process(timed(1))
        t_remote = eng.run_process(timed(2))
        assert t_remote > 10 * t_local

    def test_not_locked_after_release(self):
        eng, ctx = make_context()
        lock = SMIRWLock(ctx, home_rank=0)

        def body():
            yield from lock.acquire(3)
            assert lock.locked
            yield from lock.release(3)

        eng.run_process(body())
        assert not lock.locked

    def test_shared_holders_overlap(self):
        eng, ctx = make_context()
        lock = SMIRWLock(ctx, home_rank=0)
        held = []

        def reader(rank, hold):
            yield from lock.acquire(rank, exclusive=False)
            t_in = eng.now
            yield eng.timeout(hold)
            t_out = eng.now
            yield from lock.release(rank, exclusive=False)
            held.append((t_in, t_out))

        for rank in (1, 2, 3):
            eng.process(reader(rank, 40.0))
        eng.run()
        assert lock.max_concurrent_shared == 3
        # All three hold intervals overlap somewhere.
        assert max(t for t, _ in held) < min(t for _, t in held)
        assert not lock.locked

    def test_exclusive_excludes_everyone(self):
        eng, ctx = make_context()
        lock = SMIRWLock(ctx, home_rank=0)
        trace = []

        def worker(rank, exclusive, hold):
            yield from lock.acquire(rank, exclusive=exclusive)
            trace.append(("acq", rank, eng.now))
            yield eng.timeout(hold)
            trace.append(("rel", rank, eng.now))
            yield from lock.release(rank, exclusive=exclusive)

        eng.process(worker(1, True, 50.0))
        eng.process(worker(2, False, 10.0))
        eng.process(worker(3, True, 10.0))
        eng.run()
        # Strict serialization: each acquire happens after the previous release.
        events = sorted(trace, key=lambda t: t[2])
        kinds = [e[0] for e in events]
        assert kinds == ["acq", "rel"] * 3
        assert [e[1] for e in events] == [1, 1, 2, 2, 3, 3]

    def test_writer_not_starved_by_reader_stream(self):
        """A writer queued behind active readers is granted before any
        reader that arrived after it (FIFO starvation-freedom)."""
        eng, ctx = make_context()
        lock = SMIRWLock(ctx, home_rank=0)
        grants = []

        def reader(rank, start, hold):
            yield eng.timeout(start)
            yield from lock.acquire(rank, exclusive=False)
            grants.append(("r", rank, eng.now))
            yield eng.timeout(hold)
            yield from lock.release(rank, exclusive=False)

        def writer(rank, start, hold):
            yield eng.timeout(start)
            yield from lock.acquire(rank, exclusive=True)
            grants.append(("w", rank, eng.now))
            yield eng.timeout(hold)
            yield from lock.release(rank, exclusive=True)

        # Readers 1,2 acquire immediately; the writer arrives at t=20;
        # readers 3,0 arrive later and must wait behind the writer even
        # though the lock is in shared mode when they ask.
        eng.process(reader(1, 0.0, 100.0))
        eng.process(reader(2, 5.0, 100.0))
        eng.process(writer(3, 20.0, 30.0))
        eng.process(reader(0, 40.0, 10.0))
        eng.run()
        order = [(kind, rank) for kind, rank, _ in grants]
        assert order[:2] == [("r", 1), ("r", 2)]
        assert order[2] == ("w", 3), f"writer starved: {order}"
        assert order[3] == ("r", 0)
        assert lock.exclusive_grants == 1 and lock.shared_grants == 3

    def test_release_without_hold_rejected(self):
        eng, ctx = make_context()
        lock = SMIRWLock(ctx, home_rank=0)
        with pytest.raises(SMIError):
            eng.run_process(lock.release(1, exclusive=True))
        with pytest.raises(SMIError):
            eng.run_process(lock.release(1, exclusive=False))

    def test_contended_handover_costs_poll_latency(self):
        """A contended shared->exclusive hand-over pays the spin poll."""
        eng, ctx = make_context()
        lock = SMIRWLock(ctx, home_rank=0)
        times = {}

        def reader(rank):
            yield from lock.acquire(rank, exclusive=False)
            yield eng.timeout(10.0)
            yield from lock.release(rank, exclusive=False)
            times["release"] = eng.now

        def writer(rank):
            yield eng.timeout(1.0)
            yield from lock.acquire(rank, exclusive=True)
            times["acquired"] = eng.now
            yield from lock.release(rank, exclusive=True)

        eng.process(reader(1))
        eng.process(writer(2))
        eng.run()
        assert lock.contended_acquires == 1
        assert times["acquired"] > times["release"]  # poll + set word


class TestSMIBarrier:
    def test_all_ranks_leave_together(self):
        eng, ctx = make_context()
        barrier = SMIBarrier(ctx, ranks=[0, 1, 2, 3])
        leave_times = {}

        def worker(rank, delay):
            yield eng.timeout(delay)
            yield from barrier.enter(rank)
            leave_times[rank] = eng.now

        for rank, delay in enumerate([5.0, 1.0, 30.0, 2.0]):
            eng.process(worker(rank, delay))
        eng.run()
        # Nobody leaves before the slowest arrival at t=30.
        assert min(leave_times.values()) >= 30.0
        assert max(leave_times.values()) - min(leave_times.values()) < 5.0

    def test_reusable_across_generations(self):
        eng, ctx = make_context()
        barrier = SMIBarrier(ctx, ranks=[0, 1])
        crossings = []

        def worker(rank):
            for round_no in range(3):
                yield eng.timeout(1.0 + rank)
                yield from barrier.enter(rank)
                crossings.append((round_no, rank, eng.now))

        eng.process(worker(0))
        eng.process(worker(1))
        eng.run()
        assert len(crossings) == 6
        rounds = [c[0] for c in sorted(crossings, key=lambda c: c[2])]
        assert rounds == [0, 0, 1, 1, 2, 2]

    def test_foreign_rank_rejected(self):
        eng, ctx = make_context()
        barrier = SMIBarrier(ctx, ranks=[0, 1])

        def body():
            yield from barrier.enter(3)

        with pytest.raises(SMIError):
            eng.run_process(body())

    def test_empty_barrier_rejected(self):
        _, ctx = make_context()
        with pytest.raises(SMIError):
            SMIBarrier(ctx, ranks=[])
