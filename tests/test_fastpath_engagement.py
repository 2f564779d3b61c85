"""Pinned engagement of the closed-form stream windows.

The windows are the one analytic fast path (``docs/ENGINE.md``).  Every
guard clause that keeps them honest is also a way for them to stop
engaging without anyone noticing, so the engagement counts of three
streams are pinned here, each next to its event-stepped twin
(``fastpath_disabled()``): the counts must not drift, and the simulated
clock, per-link accounting and per-chunk time must be ``==`` in both.
Attaching a tracer must not change any of it: the windows keep engaging
and record the same events the event-stepped path would.
"""

import numpy as np
import pytest

from repro import BYTE, Cluster, NonContigMode, ProtocolConfig, Vector
from repro._units import MiB
from repro.mpi.flatten import reset_plan_cache
from repro.mpi.transport import fastpath_disabled
from repro.obs import attach_tracer
from repro.obs.cli import SCENARIOS

PINNED = ("engine.fastpath_windows", "engine.fastpath_window_chunks",
          "engine.fastpath_coalesced_events", "sim.events")
EQUAL = ("sim.time_us", "fabric.link_bytes", "fabric.link_peak_load",
         "transport.chunk_time_us")

#: 1000-byte blocks never line up with the 64 KiB rendezvous chunk, so
#: successive chunks cut the block grid at different places and cost
#: differently: the window must replay chunk by chunk.
UNEVEN = Vector(1100, 1000, 1500, BYTE)


def contiguous_stream(ctx):
    buf = ctx.alloc(4 * MiB)
    if ctx.rank == 0:
        buf.read()[:] = np.arange(4 * MiB, dtype=np.uint8)
        yield from ctx.comm.send(buf, dest=1)
        return None
    yield from ctx.comm.recv(buf, source=0)
    return int(buf.read().sum())


def direct_vector_stream(ctx):
    UNEVEN.commit()
    buf = ctx.alloc(UNEVEN.extent)
    if ctx.rank == 0:
        buf.read()[:] = np.arange(UNEVEN.extent, dtype=np.uint8)
        yield from ctx.comm.send(buf, dest=1, datatype=UNEVEN, count=1)
        return None
    yield from ctx.comm.recv(buf, source=0, datatype=UNEVEN, count=1)
    return int(buf.read().sum())


def ring_bcast(ctx):
    buf = ctx.alloc(4 * MiB)
    if ctx.rank == 0:
        buf.read()[:] = np.arange(4 * MiB, dtype=np.uint8)
    yield from ctx.comm.bcast(buf, root=0)
    return int(buf.read().sum())


def run(program, n_nodes, traced=False, **cluster_args):
    reset_plan_cache()
    cluster = Cluster(n_nodes=n_nodes, **cluster_args)
    if traced:
        attach_tracer(cluster)
    results = cluster.run(program).results
    return results, cluster.metrics.snapshot(), cluster


DIRECT = {"protocol": ProtocolConfig(noncontig_mode=NonContigMode.DIRECT)}

CASES = {
    # name: (program, nodes, cluster args, windows, chunks, coalesced, events)
    "contiguous-2n": (contiguous_stream, 2, {}, 1, 63, 315, 25),
    "direct-vector-2n": (direct_vector_stream, 2, DIRECT, 1, 16, 80, 25),
    "ring-bcast-8n": (ring_bcast, 8, {}, 1, 63, 315, 3169),
}


@pytest.mark.parametrize("case", CASES)
def test_engagement_is_pinned_and_equals_the_event_stepped_twin(case):
    program, n_nodes, args, *pinned = CASES[case]
    results, fast, cluster = run(program, n_nodes, **args)
    assert [fast[name] for name in PINNED] == pinned
    with fastpath_disabled():
        ref_results, reference, _ = run(program, n_nodes, **args)
    assert reference["engine.fastpath_windows"] == 0
    assert reference["engine.fastpath_table_hits"] == 0
    assert reference["sim.events"] > fast["sim.events"]
    assert results == ref_results
    for name in EQUAL:
        assert fast[name] == reference[name], name
    if case == "direct-vector-2n":
        durations = {cost for key, cost
                     in cluster.world.device(0).scheduler.costs._costs.items()
                     if key[0] == "direct"}
        assert len(durations) >= 3, "chunk costs were meant to differ"


def test_selector_restores_the_shipped_engine():
    with fastpath_disabled():
        with fastpath_disabled():
            pass
        _, inner, _ = run(contiguous_stream, 2)
    _, after, _ = run(contiguous_stream, 2)
    assert inner["engine.fastpath_windows"] == 0
    assert after["engine.fastpath_windows"] == 1


def test_cancelled_future_timer_does_not_disengage_the_window():
    """A superseded flow timer stays on the heap, cancelled, until its
    turn.  It never happens, so it must not make the engine look busy:
    the 4 MiB stream collapses into the same one window either way."""
    def with_stale_timer(ctx):
        if ctx.rank == 0:
            ctx.cluster.engine.timeout(1e9).cancel()
        return (yield from contiguous_stream(ctx))

    results, clean, _ = run(contiguous_stream, 2)
    stale_results, stale, _ = run(with_stale_timer, 2)
    assert stale["engine.fastpath_windows"] \
        == clean["engine.fastpath_windows"] == 1
    assert stale_results == results
    for name in PINNED + EQUAL:
        assert stale[name] == clean[name], name


#: The three cells above plus ``repro-trace --size 1048576`` (the default
#: scenario: a strided 1 MiB pingpong).
TRACED = {**{name: case[:3] for name, case in CASES.items()},
          "repro-trace-1mib": (SCENARIOS["noncontig"](MiB)[0], 2, {})}


@pytest.mark.parametrize("case", TRACED)
def test_tracing_changes_nothing_that_runs(case):
    program, n_nodes, args = TRACED[case]
    results, untraced, _ = run(program, n_nodes, **args)
    traced_results, traced, cluster = run(program, n_nodes, traced=True,
                                          **args)
    assert traced["engine.fastpath_windows"] > 0
    assert traced_results == results
    assert {name: traced[name] for name in untraced} == untraced
    assert all(name.startswith("span.")
               for name in set(traced) - set(untraced))
    with fastpath_disabled():
        _, _, reference = run(program, n_nodes, traced=True, **args)
    assert cluster.fabric.tracer.events == reference.fabric.tracer.events
