"""Tests for the remaining sim primitives: Broadcast, daemon processes,
and engine counters."""

import pytest

from repro.sim import (
    Broadcast,
    Channel,
    Deadlock,
    Engine,
)


class TestBroadcast:
    def test_wait_before_fire(self):
        eng = Engine()
        sig = Broadcast(eng)
        woken = []

        def waiter(tag):
            value = yield sig.wait()
            woken.append((tag, value, eng.now))

        def firer():
            yield eng.timeout(5.0)
            sig.fire("go")

        for tag in range(3):
            eng.process(waiter(tag))
        eng.process(firer())
        eng.run()
        assert [w[1] for w in woken] == ["go"] * 3
        assert all(w[2] == 5.0 for w in woken)

    def test_wait_after_fire_immediate(self):
        eng = Engine()
        sig = Broadcast(eng)
        sig.fire(42)

        def late():
            value = yield sig.wait()
            return (value, eng.now)

        assert eng.run_process(late()) == (42, 0.0)

    def test_double_fire_rejected(self):
        eng = Engine()
        sig = Broadcast(eng)
        sig.fire()
        with pytest.raises(RuntimeError):
            sig.fire()

    def test_reset_rearms(self):
        eng = Engine()
        sig = Broadcast(eng)
        sig.fire(1)
        sig.reset()
        assert not sig.fired

        def waiter():
            value = yield sig.wait()
            return value

        def firer():
            yield eng.timeout(1.0)
            sig.fire(2)

        eng.process(firer())
        assert eng.run_process(waiter()) == 2


class TestDaemons:
    def test_daemon_does_not_deadlock_engine(self):
        eng = Engine()
        chan = Channel(eng)

        def forever():
            while True:
                yield chan.get()

        eng.process(forever(), daemon=True)

        def worker():
            yield eng.timeout(3.0)
            return "done"

        assert eng.run_process(worker()) == "done"

    def test_non_daemon_still_deadlocks(self):
        eng = Engine()
        chan = Channel(eng)

        def forever():
            while True:
                yield chan.get()

        eng.process(forever(), daemon=False)
        with pytest.raises(Deadlock):
            eng.run()


class TestEngineCounters:
    def test_events_processed_counts(self):
        eng = Engine()

        def body():
            for _ in range(5):
                yield eng.timeout(1.0)

        eng.run_process(body())
        assert eng.events_processed >= 5

    def test_peek(self):
        eng = Engine()
        assert eng.peek() == float("inf")
        eng.timeout(7.0)
        assert eng.peek() == 7.0
