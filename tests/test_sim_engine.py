"""Unit tests for the discrete-event simulation kernel (repro.sim)."""

import pytest

from repro.sim import (
    Channel,
    Deadlock,
    Engine,
    EventAlreadyTriggered,
    InvalidYield,
    Lock,
    Resource,
    SimError,
)


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_timeout_advances_clock():
    eng = Engine()

    def body():
        yield eng.timeout(3.5)
        return eng.now

    assert eng.run_process(body()) == 3.5


def test_timeouts_process_in_time_order():
    eng = Engine()
    order = []

    def waiter(delay, tag):
        yield eng.timeout(delay)
        order.append((tag, eng.now))

    eng.process(waiter(5.0, "b"))
    eng.process(waiter(2.0, "a"))
    eng.process(waiter(9.0, "c"))
    eng.run()
    assert order == [("a", 2.0), ("b", 5.0), ("c", 9.0)]


def test_same_time_events_fifo():
    eng = Engine()
    order = []

    def waiter(tag):
        yield eng.timeout(1.0)
        order.append(tag)

    for tag in range(6):
        eng.process(waiter(tag))
    eng.run()
    assert order == list(range(6))


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_timeout_carries_value():
    eng = Engine()

    def body():
        got = yield eng.timeout(1.0, value="payload")
        return got

    assert eng.run_process(body()) == "payload"


def test_event_succeed_delivers_value():
    eng = Engine()
    ev = eng.event()

    def producer():
        yield eng.timeout(2.0)
        ev.succeed(42)

    def consumer():
        return (yield ev)

    eng.process(producer())
    assert eng.run_process(consumer()) == 42


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed(2)
    with pytest.raises(EventAlreadyTriggered):
        ev.fail(RuntimeError("x"))


def test_failed_event_raises_inside_process():
    eng = Engine()
    ev = eng.event()

    def producer():
        yield eng.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    def consumer():
        try:
            yield ev
        except RuntimeError as exc:
            return f"caught {exc}"

    eng.process(producer())
    assert eng.run_process(consumer()) == "caught boom"


def test_unhandled_failed_event_surfaces():
    eng = Engine()
    ev = eng.event()
    ev.fail(ValueError("nobody home"))
    with pytest.raises(ValueError, match="nobody home"):
        eng.run()


def test_process_exception_propagates_to_waiter():
    eng = Engine()

    def broken():
        yield eng.timeout(1.0)
        raise KeyError("inner")

    def outer():
        try:
            yield eng.process(broken())
        except KeyError:
            return "propagated"

    assert eng.run_process(outer()) == "propagated"


def test_process_return_value_via_yield():
    eng = Engine()

    def child():
        yield eng.timeout(1.0)
        return "child-result"

    def parent():
        result = yield eng.process(child())
        return result

    assert eng.run_process(parent()) == "child-result"


def test_wait_on_already_finished_process():
    eng = Engine()

    def child():
        yield eng.timeout(1.0)
        return 7

    def parent(proc):
        yield eng.timeout(10.0)
        value = yield proc
        return (value, eng.now)

    proc = eng.process(child())
    assert eng.run_process(parent(proc)) == (7, 10.0)


def test_invalid_yield_detected():
    eng = Engine()

    def bad():
        yield 123  # not an Event

    with pytest.raises(InvalidYield):
        eng.run_process(bad())


def test_deadlock_detection():
    eng = Engine()
    ev = eng.event()  # never triggered

    def stuck():
        yield ev

    eng.process(stuck(), name="stuck-proc")
    with pytest.raises(Deadlock) as info:
        eng.run()
    assert "stuck-proc" in str(info.value)


@pytest.mark.parametrize("started", [True, False])
def test_a_stopped_process_runs_its_finally_and_is_no_deadlock(started):
    eng = Engine()
    ev = eng.event()
    trail = []

    def waiter():
        try:
            trail.append("waits")
            yield ev
            trail.append("resumed")
        finally:
            trail.append("closed")

    proc = eng.process(waiter())
    if started:
        eng.step()      # the process starts and waits on ev
    proc.stop()
    ev.succeed()
    eng.run()           # no Deadlock, and ev resumes nobody
    assert trail == (["waits", "closed"] if started else [])
    assert not proc.triggered


def test_run_until_stops_before_events():
    eng = Engine()
    fired = []

    def late():
        yield eng.timeout(100.0)
        fired.append(True)

    eng.process(late())
    eng.run(until=50.0)
    assert eng.now == 50.0
    assert not fired
    eng.run()  # completes the rest
    assert fired and eng.now == 100.0


def test_run_until_past_rejected():
    eng = Engine()
    eng.run(until=5.0)
    with pytest.raises(ValueError):
        eng.run(until=1.0)


def test_step_on_empty_queue_rejected():
    eng = Engine()
    with pytest.raises(SimError):
        eng.step()


def test_all_of_waits_for_every_event():
    eng = Engine()

    def body():
        t1 = eng.timeout(1.0, value="a")
        t2 = eng.timeout(5.0, value="b")
        results = yield eng.all_of([t1, t2])
        return (eng.now, sorted(results.values()))

    assert eng.run_process(body()) == (5.0, ["a", "b"])


def test_any_of_fires_on_first():
    eng = Engine()

    def body():
        t1 = eng.timeout(1.0, value="fast")
        t2 = eng.timeout(5.0, value="slow")
        results = yield eng.any_of([t1, t2])
        return (eng.now, list(results.values()))

    now, values = eng.run_process(body())
    assert now == 1.0 and values == ["fast"]


def test_all_of_empty_fires_immediately():
    eng = Engine()

    def body():
        result = yield eng.all_of([])
        return result

    assert eng.run_process(body()) == {}


class TestChannel:
    def test_put_then_get(self):
        eng = Engine()
        chan = Channel(eng)

        def body():
            yield chan.put("x")
            item = yield chan.get()
            return item

        assert eng.run_process(body()) == "x"

    def test_get_blocks_until_put(self):
        eng = Engine()
        chan = Channel(eng)

        def producer():
            yield eng.timeout(4.0)
            yield chan.put("late")

        def consumer():
            item = yield chan.get()
            return (item, eng.now)

        eng.process(producer())
        assert eng.run_process(consumer()) == ("late", 4.0)

    def test_fifo_order(self):
        eng = Engine()
        chan = Channel(eng)

        def producer():
            for i in range(5):
                yield chan.put(i)

        def consumer():
            got = []
            for _ in range(5):
                got.append((yield chan.get()))
            return got

        eng.process(producer())
        assert eng.run_process(consumer()) == [0, 1, 2, 3, 4]

    def test_bounded_put_blocks_when_full(self):
        eng = Engine()
        chan = Channel(eng, capacity=1)
        progress = []

        def producer():
            yield chan.put("a")
            progress.append(("put-a", eng.now))
            yield chan.put("b")  # blocks until consumer takes "a"
            progress.append(("put-b", eng.now))

        def consumer():
            yield eng.timeout(10.0)
            first = yield chan.get()
            second = yield chan.get()
            return [first, second]

        eng.process(producer())
        assert eng.run_process(consumer()) == ["a", "b"]
        assert progress == [("put-a", 0.0), ("put-b", 10.0)]

    def test_try_put(self):
        eng = Engine()
        chan = Channel(eng, capacity=1)
        assert chan.try_put(1)
        assert not chan.try_put(2)
        got = chan.get()
        assert got.triggered and got.value == 1
        assert chan.try_put(2)

    def test_capacity_validation(self):
        eng = Engine()
        with pytest.raises(ValueError):
            Channel(eng, capacity=0)


class TestResource:
    def test_mutual_exclusion_orders_access(self):
        eng = Engine()
        lock = Lock(eng)
        trace = []

        def worker(tag, hold):
            yield lock.request()
            trace.append((tag, "acquired", eng.now))
            yield eng.timeout(hold)
            lock.release()

        eng.process(worker("a", 5.0))
        eng.process(worker("b", 3.0))
        eng.run()
        assert trace == [("a", "acquired", 0.0), ("b", "acquired", 5.0)]

    def test_capacity_two_admits_two(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        starts = []

        def worker(tag):
            yield res.request()
            starts.append((tag, eng.now))
            yield eng.timeout(10.0)
            res.release()

        for tag in ("a", "b", "c"):
            eng.process(worker(tag))
        eng.run()
        assert starts == [("a", 0.0), ("b", 0.0), ("c", 10.0)]

    def test_release_unheld_rejected(self):
        eng = Engine()
        res = Resource(eng)
        with pytest.raises(RuntimeError):
            res.release()

    def test_held_combinator_releases_on_error(self):
        eng = Engine()
        lock = Lock(eng)

        def failing_body():
            yield eng.timeout(1.0)
            raise RuntimeError("inside")

        def body():
            try:
                yield from lock.held(failing_body())
            except RuntimeError:
                pass
            return lock.locked

        assert eng.run_process(body()) is False


def test_determinism_same_trace_twice():
    """Two runs of an interleaved program produce identical traces."""

    def build():
        eng = Engine()
        chan = Channel(eng)
        trace = []

        def producer(n):
            for i in range(n):
                yield eng.timeout(1.5)
                yield chan.put(i)

        def consumer(tag):
            while True:
                item = yield chan.get()
                trace.append((tag, item, eng.now))
                if item >= 8:
                    return

        eng.process(producer(10))
        eng.process(consumer("c1"))
        eng.run(until=100.0)
        return trace

    assert build() == build()


def clock_instants(eng: Engine) -> list[float]:
    """Drive ``eng`` one event at a time; every instant its clock moves to."""
    instants = []
    while eng.pending_events:
        before = eng.now
        eng.step()
        if eng.now > before:
            instants.append(eng.now)
    return instants


class TestEngineContract:
    """What the slim event core must keep: order, step/run parity,
    diagnostics, and no heap event nobody can wait on."""

    def test_same_instant_events_fire_in_trigger_order(self):
        eng = Engine()
        order = []

        def mark(tag):
            return lambda _ev: order.append(tag)

        done = eng.event()
        done.callbacks.append(mark("succeed-early"))
        done.succeed()                      # processed before ``body`` starts
        eng.timeout(0.0).callbacks.append(mark("timeout0"))
        plain = eng.event()
        plain.callbacks.append(mark("succeed"))
        plain.succeed()
        eng.wake_at(eng.now).callbacks.append(mark("wake_at"))

        def body():
            order.append("init")            # the process's init event
            yield done                      # already processed: bridge event
            order.append("bridge")

        eng.process(body())
        eng.timeout(0.0).callbacks.append(mark("timeout0-late"))
        eng.run()
        assert order == ["succeed-early", "timeout0", "succeed", "wake_at",
                         "init", "timeout0-late", "bridge"]
        assert eng.now == 0.0
        assert eng.events_processed == 8    # the seven above + the process

    @staticmethod
    def _scenario(fail: bool):
        eng = Engine()
        chan = Channel(eng, name="pipe")
        ticks = []  # (process, clock) at every resume

        def producer():
            for i in range(4):
                yield eng.timeout(1.25)
                ticks.append(("producer", eng.now))
                yield chan.put(i)
                ticks.append(("producer", eng.now))
            if fail:
                eng.event().fail(RuntimeError("boom"))  # nobody handles it
            yield eng.timeout(2.0)
            ticks.append(("producer", eng.now))

        def consumer():
            for _ in range(4):
                yield chan.get()
                ticks.append(("consumer", eng.now))
                yield eng.timeout(0.0)
                ticks.append(("consumer", eng.now))

        eng.process(producer())
        eng.process(consumer())
        return eng, ticks

    @pytest.mark.parametrize("fail", [False, True])
    def test_step_and_run_agree(self, fail):
        ran, ran_ticks = self._scenario(fail)
        stepped, stepped_ticks = self._scenario(fail)
        def step_all():
            while stepped.pending_events:
                stepped.step()

        outcomes = []
        for drive in (ran.run, step_all):
            try:
                drive()
                outcomes.append(None)
            except RuntimeError as error:
                outcomes.append(str(error))
        assert outcomes == (["boom", "boom"] if fail else [None, None])
        assert stepped.events_processed == ran.events_processed
        assert stepped_ticks == ran_ticks
        assert sorted({now for _, now in ran_ticks}) == [
            1.25, 2.5, 3.75, 5.0] + ([] if fail else [7.0])
        assert stepped.now == ran.now
        assert stepped.pending_events == ran.pending_events

    def test_deadlock_names_the_channel(self):
        eng = Engine()
        chan = Channel(eng, name="mailbox-7")

        def stuck():
            yield chan.get()

        eng.process(stuck(), name="reader")
        with pytest.raises(Deadlock, match=r"reader \(on <Event 'mailbox-7:get' pending>\)"):
            eng.run()

    def test_waiting_on_names_the_flow(self):
        from repro.hardware.sci import FlowNetwork, RingTopology

        eng = Engine()
        ring = RingTopology(4)
        net = FlowNetwork(eng, {seg: 100.0 for seg in ring.segments()}, name="ringlet")

        def sender():
            yield net.transfer(ring.route(0, 2), 1000.0, 10.0)

        proc = eng.process(sender(), name="sender")
        eng.run(until=1.0)
        assert repr(proc.waiting_on) == "<Event 'ringlet:flow-done' pending>"
        eng.run()
        assert eng.now == 100.0

    def test_heap_events_of_two_overlapping_flows(self):
        """Two flows sharing a link cost four heap events — a live timer
        and a completion each — however often the rates change; the one
        superseded timer (the first flow's solo finish, replaced when the
        second starts) is dropped uncounted and leaves the clock alone."""
        from repro.hardware.sci import FlowNetwork, RingTopology

        eng = Engine()
        ring = RingTopology(4)
        net = FlowNetwork(eng, {seg: 100.0 for seg in ring.segments()})
        first = net.transfer(ring.route(0, 1), 1000.0, 90.0)
        solo_finish = eng.peek()
        second = net.transfer(ring.route(0, 1), 4000.0, 90.0)
        assert eng.pending_events == 1  # the successor; the cancelled timer is absent
        assert eng.peek() > solo_finish
        ticks = clock_instants(eng)
        assert first.processed and second.processed
        assert eng.events_processed == 4
        assert solo_finish not in ticks and ticks[-1] == eng.now == eng.run()
        assert len(ticks) == 2

    def test_cancelled_event_is_dropped_unprocessed(self):
        eng = Engine()
        fired = []
        doomed = eng.timeout(5.0)
        doomed.callbacks.append(fired.append)
        kept = eng.timeout(3.0)
        kept.callbacks.append(fired.append)
        doomed.cancel()
        assert clock_instants(eng) == [3.0]
        assert eng.run() == 3.0
        assert fired == [kept]
        assert eng.events_processed == 1 and eng.pending_events == 0
        assert not doomed.processed and not doomed.triggered
        assert kept.processed

    def test_cancelled_entries_are_absent(self):
        """A cancelled entry still sits on the heap until its turn, but
        nothing that asks the engine about the future may see it."""
        eng = Engine()
        late = eng.timeout(5.0)
        late.cancel()
        assert eng.quiescent
        assert eng.pending_events == 0
        assert eng.peek() == float("inf")
        with pytest.raises(SimError, match="empty event queue"):
            eng.step()
        assert eng.now == 0.0 and eng.events_processed == 0
        assert not late.processed

        doomed, kept = eng.timeout(1.0), eng.timeout(2.0)
        doomed.cancel()
        assert eng.pending_events == 1 and eng.peek() == eng.now + 2.0
        assert not eng.quiescent  # a live timer in the future
        eng.step()  # exactly one event: the live one, not the cancelled one
        assert eng.events_processed == 1 and kept.processed
        assert eng.quiescent

    def test_cancelling_a_processed_event_keeps_it_processed(self):
        eng = Engine()
        done = eng.timeout(1.0)
        eng.run()
        done.cancel()
        assert done.processed and done.triggered

    @pytest.mark.parametrize("shared, per_put", [(True, 4), (False, 10)])
    def test_heap_events_per_put_are_fixed(self, shared, per_put):
        """A remote 64 B put costs a fixed number of heap events.

        Direct (shared window): call overhead, hop latency, flow timer,
        flow completion.  Emulated call by call (private window, the
        paper's policy): the same four for the payload, plus the
        interrupt, the service loop's wake-up and poll latency, handler
        dispatch, the handler's copy and the acknowledgement — and
        nothing for the fire-and-forget delivery into the service queue.
        A never-awaited event that creeps back in changes these numbers.
        """
        import numpy as np

        from repro.cluster import Cluster
        from repro.mpi.transport import PaperThresholdPolicy

        def events(n_puts):
            def program(ctx):
                win = yield from ctx.comm.win_create(4096, shared=shared)
                yield from win.fence()
                if ctx.comm.rank == 0:
                    for i in range(n_puts):
                        yield from win.put(np.zeros(64, dtype=np.uint8), 1, 128 * i)
                yield from win.fence()

            cluster = Cluster(n_nodes=2, policy=PaperThresholdPolicy())
            cluster.run(program)
            return cluster.engine.events_processed

        assert events(5) - events(1) == 4 * per_put

    @pytest.mark.parametrize("op, target, per_op", [
        ("accumulate", 0, 2),
        ("accumulate", 1, 10),
        ("fetch", 0, 2),
        ("fetch", 1, 10),
        ("get", 1, 13),
    ], ids=["acc-local", "acc-emulated", "fetch-local", "fetch-emulated",
            "get-emulated"])
    def test_heap_events_per_osc_op_are_fixed(self, op, target, per_op):
        """The same pin for accumulate and get, 64 B each.

        A local accumulate (``target`` 0) is the call overhead and the
        target body's read-modify-write; the body allocates no
        acknowledgement.  A remote one is emulated with the same ten
        events as an emulated put, with or without ``fetch``.  A get
        emulated on its own call (private window, the paper's policy) is
        the request packet, the handler, the remote-put response into the
        origin and its drain.
        """
        import numpy as np

        from repro.cluster import Cluster
        from repro.mpi.transport import PaperThresholdPolicy

        def events(n_ops):
            def program(ctx):
                win = yield from ctx.comm.win_create(4096, shared=op != "get")
                yield from win.fence()
                if ctx.comm.rank == 0:
                    for i in range(n_ops):
                        if op == "get":
                            yield from win.get(64, target, 128 * i)
                        else:
                            yield from win.accumulate(
                                np.zeros(8), target, 128 * i,
                                fetch=op == "fetch")
                yield from win.fence()

            cluster = Cluster(n_nodes=2, policy=PaperThresholdPolicy())
            cluster.run(program)
            return cluster.engine.events_processed

        assert events(5) - events(1) == 4 * per_op
