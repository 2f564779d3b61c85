"""Batched emulated puts: a put into private memory waits in its target's
queue until a completion point, then ships with the target's other queued
puts as one emulated put (one remote write, one interrupt, one handler
scatter).

The queue must be invisible to the program: every epoch type lands the
same bytes as per-call emulation (``PaperThresholdPolicy``), puts to one
location apply in call order, and a get or accumulate after a queued put
to the same target sees it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import KiB
from repro.cluster import Cluster
from repro.hardware.sci.transactions import AccessRun
from repro.mpi.datatypes import BYTE, DOUBLE, Vector
from repro.mpi.transport import OSCStrategy, PaperThresholdPolicy

WINDOW = 4 * KiB
#: A typed target: 4 blocks of 8 B, 24 B apart.
STRIDED = Vector(4, 8, 24, BYTE).commit()


def _puts(seed, targets, count=40):
    """``count`` seeded puts ``(target, disp, payload, typed)`` of 1-64 B
    (a typed one writes ``STRIDED``'s 32 B) over ``targets``."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        target = int(rng.choice(targets))
        typed = rng.random() < 0.2
        n = STRIDED.size if typed else int(rng.integers(1, 65))
        span = STRIDED.extent if typed else n
        disp = int(rng.integers(0, WINDOW - span))
        out.append((target, disp, rng.integers(0, 256, n, dtype=np.uint8),
                    typed))
    return out


def _expected(puts, target):
    """``target``'s window after ``puts`` applied one by one."""
    window = np.zeros(WINDOW, np.uint8)
    for to, disp, payload, typed in puts:
        if to != target:
            continue
        if typed:
            for block in range(4):
                window[disp + 24 * block : disp + 24 * block + 8] = \
                    payload[8 * block : 8 * block + 8]
        else:
            window[disp : disp + payload.nbytes] = payload
    return window


def _put(win, target, disp, payload, typed):
    return win.put(payload, target, disp,
                   target_datatype=STRIDED if typed else None)


def _cluster(local=False, policy=None, n=3):
    if local:
        return Cluster(n_nodes=1, procs_per_node=n, policy=policy)
    return Cluster(n_nodes=n, policy=policy)


def _run(sync, puts, local=False, policy=None):
    """Rank 0 issues ``puts`` to ranks 1 and 2 in one epoch closed by
    ``sync``; returns every rank's window and the cluster."""

    def program(ctx):
        comm = ctx.comm
        win = yield from comm.win_create(WINDOW, shared=False)
        win.local_view()[:] = 0
        if sync == "fence":
            yield from win.fence()
            if comm.rank == 0:
                for put in puts:
                    yield from _put(win, *put)
            yield from win.fence()
        elif sync == "pscw":
            if comm.rank == 0:
                yield from win.start([1, 2])
                for put in puts:
                    yield from _put(win, *put)
                yield from win.complete([1, 2])
            else:
                yield from win.post([0])
                yield from win.wait([0])
        else:  # one lock epoch per target
            yield from comm.barrier()
            if comm.rank == 0:
                for target in (1, 2):
                    yield from win.lock(target)
                    for put in puts:
                        if put[0] == target:
                            yield from _put(win, *put)
                    yield from win.unlock(target)
            yield from comm.barrier()
        return np.array(win.local_view())

    cluster = _cluster(local, policy)
    return cluster.run(program).results, cluster


class TestEpochs:
    @pytest.mark.parametrize("local", [False, True], ids=["sci", "one-node"])
    @pytest.mark.parametrize("sync", ["fence", "pscw", "lock"])
    def test_epoch_lands_byte_exact(self, sync, local):
        puts = _puts(7, [1, 2])
        windows, cluster = _run(sync, puts, local)
        for target in (1, 2):
            assert np.array_equal(windows[target], _expected(puts, target))
        if not local:
            # One shipment per target: one interrupt each, not forty.
            assert cluster.metrics.snapshot()["fabric.interrupts"] == 2

    def test_the_paper_policy_ships_every_call(self):
        puts = _puts(7, [1, 2])
        windows, cluster = _run("fence", puts, policy=PaperThresholdPolicy())
        for target in (1, 2):
            assert np.array_equal(windows[target], _expected(puts, target))
        assert cluster.metrics.snapshot()["fabric.interrupts"] == len(puts)


def _one_target(calls, policy=None):
    """Rank 0 runs ``calls(win)`` (a generator) against rank 1's private
    window in one fence epoch; returns rank 0's result and rank 1's
    window."""

    def program(ctx):
        win = yield from ctx.comm.win_create(32 * KiB, shared=False)
        win.local_view()[:] = 0
        yield from win.fence()
        result = None
        if ctx.comm.rank == 0:
            result = yield from calls(win)
        yield from win.fence()
        return result, np.array(win.local_view())

    results = Cluster(n_nodes=2, policy=policy).run(program).results
    return results[0][0], results[1][1]


class TestOrder:
    def test_same_location_puts_apply_in_call_order(self):
        def calls(win):
            yield from win.put(np.full(16, 1, np.uint8), 1, 0)
            yield from win.put(np.full(8, 2, np.uint8), 1, 4)
            yield from win.put(np.full(32, 3, np.uint8), 1, 6,
                               target_datatype=STRIDED)
            yield from win.put(np.full(4, 4, np.uint8), 1, 8)

        _, window = _one_target(calls)
        _, reference = _one_target(calls, PaperThresholdPolicy())
        assert np.array_equal(window, reference)
        assert window[:16].tolist() == [1] * 4 + [2, 2, 3, 3] + [4] * 4 + [3, 3, 1, 1]

    def test_an_immediate_put_after_queued_ones_lands_last(self):
        """A 16 KiB put is emulated on its own call; the 8 B put queued
        before it at the same place must not land after it."""
        def calls(win):
            yield from win.put(np.full(8, 5, np.uint8), 1, 0)
            yield from win.put(np.full(16 * KiB, 7, np.uint8), 1, 0)
            yield from win.put(np.full(8, 9, np.uint8), 1, 8)

        _, window = _one_target(calls)
        assert window[:8].tolist() == [7] * 8
        assert window[8:16].tolist() == [9] * 8
        assert window[16 : 16 * KiB].tolist() == [7] * (16 * KiB - 16)

    def test_a_get_sees_the_queued_put(self):
        def calls(win):
            yield from win.put(np.full(8, 9, np.uint8), 1, 100)
            data = yield from win.get(16, 1, 96)
            return data.tolist()

        fetched, _ = _one_target(calls)
        assert fetched == [0] * 4 + [9] * 8 + [0] * 4

    def test_an_accumulate_sees_the_queued_put(self):
        def calls(win):
            yield from win.put(np.array([1.5]).view(np.uint8), 1, 64)
            previous = yield from win.accumulate(
                np.array([2.0]), 1, 64, op="sum", datatype=DOUBLE, fetch=True)
            yield from win.accumulate(np.array([4.0]), 1, 64, op="sum",
                                      datatype=DOUBLE)
            return previous.tolist()

        previous, window = _one_target(calls)
        assert previous == [1.5]
        assert window[64:72].view(np.float64).tolist() == [7.5]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), local=st.booleans(),
       sync=st.sampled_from(["fence", "pscw", "lock"]))
def test_windows_equal_per_call_emulation(seed, local, sync):
    """Seeded put sequences land exactly what per-call emulation lands."""
    puts = _puts(seed, [1, 2], count=int(np.random.default_rng(seed)
                                         .integers(1, 60)))
    batched, _ = _run(sync, puts, local)
    per_call, _ = _run(sync, puts, local, PaperThresholdPolicy())
    for got, want in zip(batched, per_call):
        assert np.array_equal(got, want)


class TestFlushTarget:
    def test_flush_of_one_target_does_not_wait_for_another(self):
        """Rank 0 has a 16 KiB put in flight to rank 2 (its handler still
        copying) and an 8 B put queued for rank 1: ``flush(1)`` ships and
        completes rank 1's only."""

        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(32 * KiB, shared=False)
            yield from win.fence()
            pending = None
            if comm.rank == 0:
                yield from win.put(np.full(16 * KiB, 1, np.uint8), 2, 0)
                yield from win.put(np.full(8, 2, np.uint8), 1, 0)
                yield from win.flush(1)
                pending = {rank: [ack.processed for ack in acks]
                           for rank, acks in win._pending_acks.items()}
            yield from win.fence()
            return pending, int(win.local_view()[0])

        results = Cluster(n_nodes=3).run(program).results
        assert results[0][0] == {2: [False]}
        assert [value for _, value in results[1:]] == [2, 1]


class TestVerdict:
    @pytest.mark.parametrize("local", [False, True], ids=["sci", "one-node"])
    @pytest.mark.parametrize("nbytes, strategy", [
        (8, OSCStrategy.BATCHED), (64, OSCStrategy.BATCHED),
        (1 * KiB, OSCStrategy.BATCHED), (64 * KiB, OSCStrategy.EMULATED),
    ])
    def test_private_put_verdict(self, nbytes, strategy, local):
        """Batching saves an interrupt (SCI) or a handler pass (one node)
        per put and costs a staging copy: small puts batch, a 64 KiB put
        is emulated on its own call."""
        cluster = _cluster(local, n=2)
        verdict = cluster.world.device(0).scheduler.osc_verdict(
            "put", AccessRun.contiguous(0, nbytes), None, 0, nbytes, 1,
            mapped=False)
        assert verdict == strategy
