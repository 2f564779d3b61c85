"""Tests for the execution tracer (repro.obs.trace)."""

import pytest

from repro._units import KiB
from repro.cluster import Cluster
from repro.obs import Tracer, attach_tracer


def run_traced(nbytes=4 * KiB):
    cluster = Cluster(n_nodes=2)
    tracer = attach_tracer(cluster)

    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        if comm.rank == 0:
            yield from comm.send(buf, dest=1, tag=9)
        else:
            yield from comm.recv(buf, source=0, tag=9)

    cluster.run(program)
    return tracer


class TestTracer:
    def test_events_recorded(self):
        tracer = run_traced()
        kinds = {ev.kind for ev in tracer.events}
        assert {"send.begin", "send.end", "recv.begin",
                "recv.matched", "recv.end"} <= kinds

    def test_spans_match_begin_end(self):
        tracer = run_traced()
        sends = [s for s in tracer.spans("send")]
        recvs = [s for s in tracer.spans("recv")]
        assert len(sends) == 1 and len(recvs) == 1
        assert sends[0].rank == 0 and recvs[0].rank == 1
        assert sends[0].duration > 0
        assert recvs[0].end >= sends[0].start

    def test_protocol_detail(self):
        tracer = run_traced(nbytes=4 * KiB)
        (send,) = tracer.spans("send")
        assert send.detail["protocol"] == "eager"
        tracer = run_traced(nbytes=128 * KiB)
        (send,) = tracer.spans("send")
        assert send.detail["protocol"] == "rndv"

    def test_time_in_and_summary(self):
        tracer = run_traced()

        def time_in(rank, op):
            return sum(s.duration for s in tracer.spans(op) if s.rank == rank)

        assert time_in(0, "send") > 0
        assert time_in(1, "recv") > 0
        assert time_in(1, "send") == 0
        text = tracer.summary()
        assert "rank 0" in text and "send" in text

    def test_for_rank_filter(self):
        tracer = run_traced()
        mine = [ev for ev in tracer.events if ev.rank == 0]
        assert mine and all(ev.rank == 0 for ev in mine)

    def test_empty_tracer_summary(self):
        t = Tracer()
        assert "no spans" in t.summary()
        assert len(t) == 0

    def test_overlapping_nonblocking_sends_pair_per_process(self):
        """A short isend, then 0.2 µs later a rendezvous isend: the short
        one ends inside the rendezvous span, and its end must close its
        own begin, not the rank's latest one."""
        def program(ctx):
            buf = ctx.alloc(1024 * KiB)
            if ctx.rank == 0:
                small = ctx.comm.isend(buf.slice(0, 8), dest=1, tag=2)
                yield ctx.cluster.engine.timeout(0.2)
                large = ctx.comm.isend(buf, dest=1, tag=1)
                yield from small.wait()
                yield from large.wait()
            else:
                yield from ctx.comm.recv(buf, source=0, tag=1)
                yield from ctx.comm.recv(buf.slice(0, 8), source=0, tag=2)

        cluster = Cluster(n_nodes=2)
        tracer = attach_tracer(cluster)
        cluster.run(program)
        begins = {ev.detail["tag"]: ev.time for ev in tracer.events
                  if ev.kind == "send.begin"}
        short, rndv = sorted(tracer.spans("send"), key=lambda s: s.end)
        assert (short.detail["protocol"], rndv.detail["protocol"]) \
            == ("short", "rndv")
        assert (short.detail["tag"], rndv.detail["tag"]) == (2, 1)
        assert (short.start, rndv.start) == (begins[2], begins[1])
        assert begins[2] < begins[1] and short.duration < rndv.duration


def run_osc_traced(shared=True):
    import numpy as np

    cluster = Cluster(n_nodes=2)
    tracer = attach_tracer(cluster)

    def program(ctx):
        comm = ctx.comm
        win = yield from comm.win_create(4 * KiB, shared=shared)
        yield from win.fence()
        if comm.rank == 0:
            yield from win.put(np.ones(64, dtype=np.uint8), target=1)
            yield from win.accumulate(np.ones(8, dtype=np.float64), target=1)
        yield from win.fence()
        if comm.rank == 0:
            yield from win.lock(1)
            yield from win.get(8 * KiB // 2, target=1)
            yield from win.unlock(1)

    cluster.run(program)
    return tracer


class TestOSCSpans:
    OSC_OPS = ("osc.put", "osc.get", "osc.acc", "osc.fence", "osc.lock",
               "osc.unlock")

    @pytest.mark.parametrize("shared", [True, False])
    def test_every_begin_has_matching_end(self, shared):
        tracer = run_osc_traced(shared=shared)
        for op in self.OSC_OPS:
            begins = [ev for ev in tracer.events if ev.kind == f"{op}.begin"]
            ends = [ev for ev in tracer.events if ev.kind == f"{op}.end"]
            assert len(begins) == len(ends) > 0, op
            spans = list(tracer.spans(op))
            assert len(spans) == len(begins), op
            assert all(s.duration >= 0 for s in spans), op

    def test_span_strategies(self):
        tracer = run_osc_traced(shared=True)
        (put,) = tracer.spans("osc.put")
        assert put.detail["strategy"] == "direct"
        (get,) = tracer.spans("osc.get")
        assert get.detail["strategy"] == "remote_put"
        (acc,) = tracer.spans("osc.acc")
        assert acc.detail["strategy"] == "emulated"
        tracer = run_osc_traced(shared=False)
        (put,) = tracer.spans("osc.put")
        assert put.detail["strategy"] == "batched"  # shipped at the fence
        (get,) = tracer.spans("osc.get")
        assert get.detail["strategy"] == "emulated"

    def test_fence_spans_on_every_rank(self):
        tracer = run_osc_traced()
        fences = list(tracer.spans("osc.fence"))
        assert {s.rank for s in fences} == {0, 1}
        assert len(fences) == 4  # two fences per rank
