"""Batched emulated puts and gets: a put into or a get from private
memory waits in its target's queue until a completion point, then ships
with the target's other queued calls of its kind: puts as one emulated
put (one remote write, one interrupt, one handler scatter), gets as one
emulated get (one request, one interrupt, one handler gather).

The queue must be invisible to the program: every epoch type lands and
fetches the same bytes as per-call emulation (``PaperThresholdPolicy``),
puts to one location apply in call order, a get or accumulate after a
queued put to the same target sees it, and a put after a queued get does
not reach the get.  A get's buffer is read after a completion point for
its target (MPI leaves it undefined before).
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


def _calls(seed, targets, count=40, gets=0.0):
    """``count`` seeded calls of 1-64 B (a typed one moves ``STRIDED``'s
    32 B) over ``targets``: puts ``(target, disp, payload, typed)``, each
    a get ``(target, disp, nbytes, typed)`` instead with probability
    ``gets``."""
    rng, kinds = np.random.default_rng(seed), np.random.default_rng([seed, 1])
    out = []
    for _ in range(count):
        target = int(rng.choice(targets))
        typed = rng.random() < 0.2
        n = STRIDED.size if typed else int(rng.integers(1, 65))
        span = STRIDED.extent if typed else n
        disp = int(rng.integers(0, WINDOW - span))
        payload = rng.integers(0, 256, n, dtype=np.uint8)
        out.append((target, disp, n if kinds.random() < gets else payload,
                    typed))
    return out


def _fill(rank):
    """Rank ``rank``'s window before the epoch."""
    return ((np.arange(WINDOW) * 7 + 3 * rank) % 251).astype(np.uint8)


def _footprint(disp, n, typed):
    """The window bytes a call of ``n`` bytes at ``disp`` touches."""
    if typed:
        return (disp + 24 * np.arange(4)[:, None] + np.arange(8)).ravel()
    return np.arange(disp, disp + n)


def _expected(puts, target):
    """``target``'s window after ``puts`` applied one by one."""
    window = _fill(target)
    for to, disp, payload, typed in puts:
        if to == target:
            window[_footprint(disp, payload.nbytes, typed)] = payload
    return window


def _call(win, target, disp, data, typed):
    """A put of ``data``, or a get of ``data`` bytes for an int."""
    dtype = STRIDED if typed else None
    if isinstance(data, int):
        return win.get(data, target, disp, target_datatype=dtype)
    return win.put(data, target, disp, target_datatype=dtype)


def _cluster(local=False, policy=None, n=3):
    if local:
        return Cluster(n_nodes=1, procs_per_node=n, policy=policy)
    return Cluster(n_nodes=n, policy=policy)


def _run(sync, calls, local=False, policy=None):
    """Rank 0 issues ``calls`` (:func:`_calls`) to ranks 1 and 2 in one
    epoch closed by ``sync``; returns every rank's window, rank 0's
    fetched buffers by call index (read after the sync) and the
    cluster."""

    def program(ctx):
        comm = ctx.comm
        win = yield from comm.win_create(WINDOW, shared=False)
        win.local_view()[:] = _fill(comm.rank)
        fetched = {}

        def issue(target=None):
            for i, call in enumerate(calls):
                if target in (None, call[0]):
                    fetched[i] = yield from _call(win, *call)

        if sync == "fence":
            yield from win.fence()
            if comm.rank == 0:
                yield from issue()
            yield from win.fence()
        elif sync == "pscw":
            if comm.rank == 0:
                yield from win.start([1, 2])
                yield from issue()
                yield from win.complete([1, 2])
            else:
                yield from win.post([0])
                yield from win.wait([0])
        else:  # one lock epoch per target
            yield from comm.barrier()
            if comm.rank == 0:
                for target in (1, 2):
                    yield from win.lock(target)
                    yield from issue(target)
                    yield from win.unlock(target)
            yield from comm.barrier()
        return np.array(win.local_view()), fetched

    cluster = _cluster(local, policy)
    results = cluster.run(program).results
    return [window for window, _ in results], results[0][1], cluster


class TestEpochs:
    @pytest.mark.parametrize("local", [False, True], ids=["sci", "one-node"])
    @pytest.mark.parametrize("sync", ["fence", "pscw", "lock"])
    def test_epoch_lands_byte_exact(self, sync, local):
        puts = _calls(7, [1, 2])
        windows, _, cluster = _run(sync, puts, local)
        for target in (1, 2):
            assert np.array_equal(windows[target], _expected(puts, target))
        if not local:
            # One shipment per target: one interrupt each, not forty.
            assert cluster.metrics.snapshot()["fabric.interrupts"] == 2

    @pytest.mark.parametrize("local", [False, True], ids=["sci", "one-node"])
    @pytest.mark.parametrize("sync", ["fence", "pscw", "lock"])
    def test_epoch_fetches_byte_exact(self, sync, local):
        gets = _calls(7, [1, 2], gets=1.0)
        windows, fetched, cluster = _run(sync, gets, local)
        for i, (target, disp, n, typed) in enumerate(gets):
            assert np.array_equal(fetched[i],
                                  _fill(target)[_footprint(disp, n, typed)])
        for rank, window in enumerate(windows):
            assert np.array_equal(window, _fill(rank))
        snapshot = cluster.metrics.snapshot()
        assert snapshot["osc.emulated_gets"] == len(gets)
        if not local:
            # One request per target: one interrupt each, not forty.
            assert snapshot["fabric.interrupts"] == 2

    @pytest.mark.parametrize("gets", [0.0, 1.0], ids=["puts", "gets"])
    def test_the_paper_policy_ships_every_call(self, gets):
        calls = _calls(7, [1, 2], gets=gets)
        windows, fetched, cluster = _run("fence", calls,
                                         policy=PaperThresholdPolicy())
        batched, batched_fetched, _ = _run("fence", calls)
        assert all(np.array_equal(a, b) for a, b in zip(windows, batched))
        assert all(np.array_equal(fetched[i], batched_fetched[i]) for i in fetched)
        assert cluster.metrics.snapshot()["fabric.interrupts"] == len(calls)


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
    def test_a_typed_get_batches_along_its_plan(self):
        """Three typed gets and an untyped one: one request, the handler
        gathering their thirteen runs along one plan in call order."""
        gets = [(1, 0, 32, True), (1, 200, 32, True), (1, 96, 32, True),
                (1, 3, 8, False)]
        _, fetched, cluster = _run("fence", gets)
        for i, (target, disp, n, typed) in enumerate(gets):
            assert np.array_equal(fetched[i],
                                  _fill(target)[_footprint(disp, n, typed)])
        assert cluster.metrics.snapshot()["fabric.interrupts"] == 1

    def test_a_batch_past_the_response_region_ships_in_chunks(self):
        """288 gets of 1 KiB queue 288 KiB, past the 256 KiB response
        region: the one queue ships as two requests, each gathering its
        range of the plan."""
        window = (np.arange(576 * KiB) % 251).astype(np.uint8)

        def program(ctx):
            win = yield from ctx.comm.win_create(window.nbytes, shared=False)
            win.local_view()[:] = window
            yield from win.fence()
            gets = []
            if ctx.comm.rank == 0:
                for i in range(288):
                    gets.append((yield from win.get(KiB, 1, 2 * KiB * i)))
            yield from win.fence()
            return gets

        cluster = Cluster(n_nodes=2)
        for i, data in enumerate(cluster.run(program).results[0]):
            assert np.array_equal(data, window[2 * KiB * i : 2 * KiB * i + KiB])
        assert cluster.metrics.snapshot()["fabric.interrupts"] == 2

    def test_a_put_after_a_queued_get_is_not_seen_by_it(self):
        def calls(win):
            data = yield from win.get(16, 1, 96)
            yield from win.put(np.full(8, 9, np.uint8), 1, 100)
            return data

        fetched, window = _one_target(calls)
        assert fetched.tolist() == [0] * 16
        assert window[96:112].tolist() == [0] * 4 + [9] * 8 + [0] * 4

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
            return (yield from win.get(16, 1, 96))

        fetched, _ = _one_target(calls)  # read after the closing fence
        assert fetched.tolist() == [0] * 4 + [9] * 8 + [0] * 4

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
    puts = _calls(seed, [1, 2], count=int(np.random.default_rng(seed)
                                         .integers(1, 60)))
    batched, _, _ = _run(sync, puts, local)
    per_call, _, _ = _run(sync, puts, local, PaperThresholdPolicy())
    for got, want in zip(batched, per_call):
        assert np.array_equal(got, want)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), local=st.booleans(),
       sync=st.sampled_from(["fence", "pscw", "lock"]))
def test_gets_equal_per_call_emulation(seed, local, sync):
    """Seeded sequences of gets among puts fetch and land exactly what
    per-call emulation does."""
    calls = _calls(seed, [1, 2], gets=0.5,
                  count=int(np.random.default_rng(seed).integers(1, 60)))
    windows, fetched, _ = _run(sync, calls, local)
    per_call, reference, _ = _run(sync, calls, local, PaperThresholdPolicy())
    for got, want in zip(windows, per_call):
        assert np.array_equal(got, want)
    assert fetched.keys() == reference.keys()
    for i, want in reference.items():
        assert (fetched[i] is None) == (want is None)
        assert want is None or np.array_equal(fetched[i], want)


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

    def test_flush_of_one_target_completes_its_gets_only(self):
        """Rank 0 queues gets to ranks 1 and 2: ``flush(1)`` fills rank 1's
        buffers and leaves rank 2's queued until the fence."""

        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(64, shared=False)
            win.local_view()[:] = comm.rank
            yield from win.fence()
            seen, gets = None, []
            if comm.rank == 0:
                for target in (1, 2, 1):
                    gets.append((yield from win.get(8, target, 8 * target)))
                yield from win.flush(1)
                seen = [data.tolist() for data in gets]
            yield from win.fence()
            return seen, [data.tolist() for data in gets]

        seen, fenced = Cluster(n_nodes=3).run(program).results[0]
        assert seen == [[1] * 8, [0] * 8, [1] * 8]
        assert fenced == [[1] * 8, [2] * 8, [1] * 8]


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

    @pytest.mark.parametrize("local", [False, True], ids=["sci", "one-node"])
    @pytest.mark.parametrize("nbytes", [8, 64, 512, 944, 952, 1576, 1584,
                                        64 * KiB])
    def test_private_get_verdict(self, nbytes, local):
        """Batching saves a request, an interrupt (SCI) and a handler pass
        per get and costs its bytes in the handler's ff gather: a get
        batches up to 1,576 B over SCI and up to 944 B on one node, where
        16 gets per epoch also turn (EXPERIMENTS.md, "One-sided
        verdict")."""
        cluster = _cluster(local, n=2)
        verdict = cluster.world.device(0).scheduler.osc_verdict(
            "get", AccessRun.contiguous(0, nbytes), None, 0, nbytes, 1,
            mapped=False)
        assert verdict == (OSCStrategy.BATCHED if nbytes <= (944 if local else 1576)
                           else OSCStrategy.EMULATED)
