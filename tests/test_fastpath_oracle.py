"""Differential oracle for the analytic fast-path engine (``-m faults``).

Every cell runs the same program twice on fresh clusters — as shipped,
then under ``fastpath_disabled()`` (the event-stepped reference, windows
and cost tables both off) — and asserts the complete
observable state is **bit-identical**: final simulated time, program
results, fabric counters, per-link flow accounting, and per-rank
scheduler/recovery stats.  The fast paths (``docs/ENGINE.md``) are
allowed to change how fast the host computes the timeline, never the
timeline itself; this file is the contract that keeps them honest.

The grid mirrors the recovery suite's: 3 seeds x
{strided, indexed, struct} datatypes x {pt2pt, osc, collectives}
suites, plus all four topology families and fault-seeded cells proving
a :class:`~repro.hardware.sci.faults.FaultPlan` consumes its random
draws identically in both modes (the fast path disengages under an
installed plan, but its cost tables stay live — pure memoization that
must not perturb a single draw).  CI's fault-matrix job runs this file
alongside ``test_fault_recovery.py`` via
``-m faults -k "<suite> and seed<N>"``.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro import BYTE, Cluster, FaultPlan, Indexed, Struct, Vector
from repro._units import KiB
from repro.hardware.sci.topology import (
    FatTree,
    RingOfRings,
    RingTopology,
    TorusTopology,
)
from repro.mpi.flatten import reset_plan_cache
from repro.mpi.transport import fastpath_disabled

pytestmark = pytest.mark.faults

SEEDS = (1, 2, 3)
seeds = pytest.mark.parametrize("seed", SEEDS,
                                ids=[f"seed{s}" for s in SEEDS])
kinds = pytest.mark.parametrize("kind", ("strided", "indexed", "struct"))


def lively_plan(seed):
    return FaultPlan(seed=seed, transient_rate=0.25, torn_rate=0.25,
                     stall_rate=0.15, stall_time=3000.0)


def datatype_case(kind):
    """(datatype, count, extent) triples whose packed stream is ~768 KiB
    — enough rendezvous chunks (12 at the default 64 KiB) that the
    closed-form window replays the steady state."""
    if kind == "strided":
        dtype = Vector(3072, 64, 96, BYTE)
        return dtype, 4, 4 * 3072 * 96
    if kind == "indexed":
        blocks = [48, 16, 64, 32] * 768
        disps, at = [], 0
        for b in blocks:
            disps.append(at)
            at += b + 17
        dtype = Indexed(blocks, disps, BYTE)
        return dtype, 4, 4 * at
    assert kind == "struct"
    dtype = Struct([24, 40], [0, 48], [BYTE, BYTE])
    return dtype, 4 * 3072, 4 * 3072 * 88


def pt2pt_program(kind, seed):
    dtype, count, extent = datatype_case(kind)

    def program(ctx):
        comm = ctx.comm
        dtype.commit()
        buf = ctx.alloc(extent)
        if comm.rank == 0:
            buf.read()[:] = (np.arange(extent, dtype=np.uint64)
                             * seed % 251).astype(np.uint8)
            yield from comm.send(buf, dest=1, datatype=dtype, count=count)
            return None
        yield from comm.recv(buf, source=0, datatype=dtype, count=count)
        return bytes(buf.read())

    return program


def osc_program(kind, seed):
    """Put a ~768 KiB payload through the target's non-contiguous window
    layout, then fetch it back through the same layout."""
    dtype, count, extent = datatype_case(kind)
    nbytes = dtype.size * count

    def program(ctx):
        comm = ctx.comm
        dtype.commit()
        win = yield from comm.win_create(extent, shared=True)
        yield from win.fence()
        if comm.rank == 0:
            data = (np.arange(nbytes, dtype=np.uint64)
                    * seed % 241).astype(np.uint8)
            yield from win.put(data, target=1, target_datatype=dtype,
                               target_count=count)
            yield from win.fence()
            got = yield from win.get(nbytes, target=1,
                                     target_datatype=dtype,
                                     target_count=count)
            yield from win.fence()
            return bytes(got)
        yield from win.fence()
        yield from win.fence()
        return bytes(win.local_view())

    return program


def collectives_program(kind, seed):
    """Broadcast through the datatype's layout, then an allgather."""
    dtype, count, extent = datatype_case(kind)

    def program(ctx):
        comm = ctx.comm
        dtype.commit()
        buf = ctx.alloc(extent)
        if comm.rank == 0:
            buf.read()[:] = (np.arange(extent, dtype=np.uint64)
                             * seed % 239).astype(np.uint8)
        yield from comm.bcast(buf, root=0, datatype=dtype, count=count)

        send = ctx.alloc(8 * KiB)
        send.read()[:] = (np.arange(8 * KiB, dtype=np.uint8)
                          + seed * comm.rank) % 233
        gathered = ctx.alloc(8 * KiB * comm.size)
        yield from comm.allgather(send, gathered)
        return (bytes(buf.read()), bytes(gathered.read()))

    return program


def run_cell(program, n_nodes=2, fast=True, topology=None, faults=None):
    """Run ``program`` as shipped (``fast``) or on the event-stepped
    reference; returns ``(snapshot, cluster)`` where the snapshot is
    every observable the fast paths could possibly perturb."""
    with nullcontext() if fast else fastpath_disabled():
        reset_plan_cache()
        cluster = Cluster(n_nodes=n_nodes, topology=topology, faults=faults)
        run = cluster.run(program)
    snapshot = {
        "now": cluster.engine.now,
        "results": run.results,
        "fabric": dict(cluster.fabric.counters),
        "links": cluster.fabric.link_stats(),
        "transport": [dict(d.scheduler.stats) for d in cluster.world.devices],
        "recovery": [dict(d.recovery) for d in cluster.world.devices],
    }
    return snapshot, cluster


def windows(cluster):
    return sum(d.scheduler.fastpath["windows"]
               for d in cluster.world.devices)


class TestPt2ptFastPathOracle:
    """pt2pt rendezvous streams: the regime the closed-form window owns."""

    @seeds
    @kinds
    def test_pt2pt_stream_bit_identical(self, seed, kind):
        program = pt2pt_program(kind, seed)
        on, c_on = run_cell(program, fast=True)
        off, c_off = run_cell(program, fast=False)
        assert on == off
        assert windows(c_on) > 0, "fast path silently disengaged"
        assert windows(c_off) == 0


class TestOscFastPathOracle:
    """One-sided puts/gets through non-contiguous target layouts."""

    @seeds
    @kinds
    def test_osc_put_get_bit_identical(self, seed, kind):
        program = osc_program(kind, seed)
        on, _ = run_cell(program, fast=True)
        off, _ = run_cell(program, fast=False)
        assert on == off


class TestCollectivesFastPathOracle:
    """Collectives ride the same transport on a 4-rank communicator."""

    @seeds
    @kinds
    def test_collectives_bit_identical(self, seed, kind):
        program = collectives_program(kind, seed)
        on, _ = run_cell(program, n_nodes=4, fast=True)
        off, _ = run_cell(program, n_nodes=4, fast=False)
        assert on == off


class TestTopologyFastPathOracle:
    """The oracle holds on every topology family's routing/flow model."""

    @pytest.mark.parametrize("topology", [
        RingTopology(8),
        TorusTopology((4, 2)),
        RingOfRings(2, 4),
        FatTree(2, 4),
    ], ids=["ring", "torus", "ring_of_rings", "fat_tree"])
    def test_pt2pt_stream_bit_identical_on(self, topology):
        dtype, count, extent = datatype_case("strided")

        def program(ctx):
            comm = ctx.comm
            dtype.commit()
            last = comm.size - 1
            if comm.rank == 0:
                buf = ctx.alloc(extent)
                buf.read()[:] = np.arange(extent, dtype=np.uint8) % 251
                yield from comm.send(buf, dest=last, datatype=dtype,
                                     count=count)
                return None
            if comm.rank == last:
                buf = ctx.alloc(extent)
                yield from comm.recv(buf, source=0, datatype=dtype,
                                     count=count)
                return bytes(buf.read())
            return None
            yield  # pragma: no cover - generator marker

        on, c_on = run_cell(program, n_nodes=8, fast=True,
                            topology=topology)
        off, _ = run_cell(program, n_nodes=8, fast=False,
                          topology=topology)
        assert on == off
        assert windows(c_on) > 0, "fast path silently disengaged"


class TestFaultedFastPathOracle:
    """Under an installed FaultPlan the closed-form window disengages
    (its guard requires a clean fabric) but the cost tables stay live;
    both modes must consume the plan's random draws identically —
    same counters, same replay log, same recovery, same timeline."""

    @staticmethod
    def _faulted(program, seed, n_nodes=2):
        plan_on = lively_plan(seed)
        on, _ = run_cell(program, n_nodes=n_nodes, fast=True,
                         faults=plan_on)
        plan_off = lively_plan(seed)
        off, _ = run_cell(program, n_nodes=n_nodes, fast=False,
                          faults=plan_off)
        assert on == off
        assert plan_on.total_injected > 0, "plan never fired"
        assert plan_on.total_injected == plan_off.total_injected
        assert plan_on.counters == plan_off.counters
        assert plan_on.events == plan_off.events
        assert plan_on.as_dict() == plan_off.as_dict()

    @seeds
    def test_pt2pt_faulted_draws_identical(self, seed):
        self._faulted(pt2pt_program("strided", seed), seed)

    @seeds
    def test_osc_faulted_draws_identical(self, seed):
        self._faulted(osc_program("strided", seed), seed)

    @seeds
    def test_collectives_faulted_draws_identical(self, seed):
        self._faulted(collectives_program("strided", seed), seed,
                      n_nodes=4)

    @seeds
    def test_pt2pt_faulted_windows_disengage(self, seed):
        _, cluster = run_cell(pt2pt_program("strided", seed), fast=True,
                              faults=lively_plan(seed))
        assert windows(cluster) == 0
