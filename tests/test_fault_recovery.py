"""Deterministic fault-injection and recovery suite (``-m faults``).

Differential oracle: every test runs a program once on a clean fabric and
once (or more) under a seeded :class:`~repro.hardware.sci.faults.FaultPlan`,
and asserts the delivered payloads are byte-identical — lost chunks are
retransmitted, torn chunks resumed at the tear offset, revoked segments
remapped or degraded to emulation, stalled receivers waited out.  CI runs
this file as a 3-seed × {pt2pt, osc, collectives} matrix via
``-m faults -k "<suite> and seed<N>"`` (the ``fault-matrix`` job).
"""

import numpy as np
import pytest

from repro import BYTE, Cluster, FaultPlan, Indexed, Struct, Vector
from repro._units import KiB
from repro.hardware.sci.faults import FaultKind
from repro.mpi.transport import RecoveryPolicy, TransferPolicy
from repro.obs import attach_tracer

pytestmark = pytest.mark.faults

SEEDS = (1, 2, 3)
seeds = pytest.mark.parametrize(
    "seed", SEEDS, ids=[f"seed{s}" for s in SEEDS]
)

#: A lively plan: lost transfers, torn chunks and receiver stalls.
def lively_plan(seed):
    return FaultPlan(seed=seed, transient_rate=0.25, torn_rate=0.25,
                     stall_rate=0.15, stall_time=3000.0)


def total_recovery(cluster):
    out = {}
    for device in cluster.world.devices:
        for key, value in device.recovery.items():
            out[key] = out.get(key, 0) + value
    return out


def datatype_case(kind):
    """(datatype, count, extent) triples whose packed stream is ~192 KiB
    (several rendezvous chunks at the default 64 KiB chunk size) — except
    ``eager``, one eager-slot write.  The two contiguous kinds send
    straight out of, and drain in place from, aliased buffers."""
    if kind == "contiguous":
        return BYTE, 192 * KiB, 192 * KiB
    if kind == "eager":
        return BYTE, 12 * KiB, 12 * KiB
    if kind == "strided":
        dtype = Vector(3072, 64, 96, BYTE)
        return dtype, 1, 3072 * 96
    if kind == "indexed":
        blocks = [48, 16, 64, 32] * 768
        disps, at = [], 0
        for b in blocks:
            disps.append(at)
            at += b + 17
        dtype = Indexed(blocks, disps, BYTE)
        return dtype, 1, at
    assert kind == "struct"
    dtype = Struct([24, 40], [0, 48], [BYTE, BYTE])
    return dtype, 3072, 3072 * 88


def pt2pt_program(kind):
    """One message — eight for ``eager``, so that every seed draws faults,
    the sender rewriting its buffer as soon as each send returns."""
    dtype, count, extent = datatype_case(kind)
    rounds = 8 if kind == "eager" else 1

    def program(ctx):
        comm = ctx.comm
        dtype.commit()
        buf = ctx.alloc(extent)
        received = []
        for r in range(rounds):
            if comm.rank == 0:
                buf.read()[:] = (np.arange(extent, dtype=np.uint8) + r) % 251
                yield from comm.send(buf, dest=1, datatype=dtype, count=count)
            else:
                yield from comm.recv(buf, source=0, datatype=dtype,
                                     count=count)
                received.append(bytes(buf.read()))
        return b"".join(received) if comm.rank else None

    return program


class TestFaultPlan:
    """Unit behaviour of the plan itself (draws, budget, determinism)."""

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=0.7, torn_rate=0.7)
        with pytest.raises(ValueError):
            FaultPlan(stall_time=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(unmap_after=0)
        with pytest.raises(ValueError):
            FaultPlan(max_consecutive=0)
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(seed=-1)

    def test_deterministic_draws(self):
        def draws(seed):
            plan = FaultPlan(seed=seed, transient_rate=0.3, torn_rate=0.3)
            return [plan.draw_transfer(0, 1, 4096, tearable=True)
                    for _ in range(64)]

        assert draws(5) == draws(5)
        assert draws(5) != draws(6)

    def test_torn_needs_tearable(self):
        plan = FaultPlan(seed=0, torn_rate=1.0)
        kind, delivered = plan.draw_transfer(0, 1, 4096, tearable=False)
        assert kind == FaultKind.TRANSIENT and delivered == 0
        plan2 = FaultPlan(seed=0, torn_rate=1.0, max_consecutive=10)
        kind, delivered = plan2.draw_transfer(0, 1, 4096, tearable=True)
        assert kind == FaultKind.TORN and 0 < delivered < 4096

    def test_max_consecutive_forces_clean_attempt(self):
        plan = FaultPlan(seed=0, transient_rate=1.0, max_consecutive=2)
        results = [plan.draw_transfer(0, 1, 1024) for _ in range(6)]
        # Every third attempt on the path is forced clean.
        assert results[0] is not None and results[1] is not None
        assert results[2] is None

    def test_budget_caps_total(self):
        plan = FaultPlan(seed=0, transient_rate=1.0, max_faults=3,
                         max_consecutive=100)
        for _ in range(10):
            plan.draw_transfer(0, 1, 1024)
        assert plan.total_injected == 3

    def test_unmap_is_one_shot(self):
        plan = FaultPlan(seed=0, unmap_after=3)

        class Seg:
            seg_id = 7

        hits = [plan.draw_unmap(Seg()) for _ in range(6)]
        assert hits == [False, False, True, False, False, False]
        assert plan.counters[FaultKind.UNMAP] == 1

    def test_replay_log_and_summary(self):
        plan = FaultPlan(seed=0, transient_rate=1.0, max_consecutive=3)
        plan.draw_transfer(0, 1, 1024)
        assert plan.events and plan.events[0].kind == FaultKind.TRANSIENT
        assert "transient=1" in plan.one_line()
        assert "[0] transient" in plan.summary()


class TestPt2ptRecovery:
    """Point-to-point differential oracle + the specific recovery paths."""

    @seeds
    @pytest.mark.parametrize(
        "kind", ["strided", "indexed", "struct", "contiguous", "eager"])
    def test_pt2pt_differential_oracle(self, seed, kind):
        program = pt2pt_program(kind)
        reference = Cluster(n_nodes=2).run(program).results[1]
        plan = lively_plan(seed)
        faulty = Cluster(n_nodes=2, faults=plan)
        got = faulty.run(program).results[1]
        assert got == reference
        assert plan.total_injected > 0
        assert sum(total_recovery(faulty).values()) > 0
        if kind in ("contiguous", "eager"):
            # A torn chunk resumed from an aliased ``data[pos:]``.
            assert total_recovery(faulty)["resumes"] > 0

    @seeds
    def test_pt2pt_torn_chunks_resume_at_offset(self, seed):
        program = pt2pt_program("strided")
        reference = Cluster(n_nodes=2).run(program).results[1]
        plan = FaultPlan(seed=seed, torn_rate=0.5)
        faulty = Cluster(n_nodes=2, faults=plan)
        got = faulty.run(program).results[1]
        assert got == reference
        assert plan.counters[FaultKind.TORN] > 0
        assert total_recovery(faulty)["resumes"] > 0

    @seeds
    def test_pt2pt_resume_disabled_still_correct(self, seed):
        """The ``resume_torn=False`` knob retransmits torn chunks whole."""
        program = pt2pt_program("strided")
        reference = Cluster(n_nodes=2).run(program).results[1]
        plan = FaultPlan(seed=seed, torn_rate=0.5)
        policy = TransferPolicy(recovery=RecoveryPolicy(resume_torn=False))
        faulty = Cluster(n_nodes=2, faults=plan, policy=policy)
        got = faulty.run(program).results[1]
        assert got == reference
        recovery = total_recovery(faulty)
        assert recovery["resumes"] == 0
        assert recovery["retries"] > 0

    @seeds
    def test_pt2pt_stalled_receiver_trips_timeout(self, seed):
        program = pt2pt_program("strided")
        reference = Cluster(n_nodes=2).run(program).results[1]
        plan = FaultPlan(seed=seed, stall_rate=1.0, stall_time=5000.0)
        faulty = Cluster(n_nodes=2, faults=plan)
        got = faulty.run(program).results[1]
        assert got == reference
        assert plan.counters[FaultKind.STALL] > 0
        assert total_recovery(faulty)["timeouts"] > 0

    @seeds
    def test_pt2pt_unmapped_packet_buffer_remapped(self, seed):
        program = pt2pt_program("strided")
        reference = Cluster(n_nodes=2).run(program).results[1]
        plan = FaultPlan(seed=seed, unmap_after=2)
        faulty = Cluster(n_nodes=2, faults=plan)
        got = faulty.run(program).results[1]
        assert got == reference
        assert plan.counters[FaultKind.UNMAP] == 1
        assert total_recovery(faulty)["remaps"] > 0

    @seeds
    def test_pt2pt_trace_summary_reports_recovery(self, seed):
        program = pt2pt_program("strided")
        plan = lively_plan(seed)
        faulty = Cluster(n_nodes=2, faults=plan)
        tracer = attach_tracer(faulty)
        faulty.run(program)
        summary = tracer.summary()
        assert "recovery:" in summary
        assert f"fault plan (seed={seed})" in summary
        recovery = total_recovery(faulty)
        if sum(recovery.values()):
            assert any(s.kind.startswith("recover.")
                       for s in tracer.spans()) or recovery["timeouts"] >= 0
            # The headline counters match the device totals.
            for key, value in recovery.items():
                assert f"{key}={value}" in summary

    def test_pt2pt_fault_free_timing_untouched(self):
        """A plan that injects nothing must not change the transfer's
        simulated duration (the receiver's observed completion time)."""
        dtype, count, extent = datatype_case("strided")

        def program(ctx):
            comm = ctx.comm
            dtype.commit()
            buf = ctx.alloc(extent)
            t0 = ctx.now
            if comm.rank == 0:
                buf.read()[:] = np.arange(extent, dtype=np.uint8) % 251
                yield from comm.send(buf, dest=1, datatype=dtype, count=count)
            else:
                yield from comm.recv(buf, source=0, datatype=dtype, count=count)
            return ctx.now - t0

        t_clean = Cluster(n_nodes=2).run(program).results
        silent_plan = FaultPlan(seed=0)
        t_silent = Cluster(n_nodes=2, faults=silent_plan).run(program).results
        assert silent_plan.total_injected == 0
        assert t_silent == t_clean

    def test_credit_timers_leave_no_phantom_time(self):
        """The chunk-credit timeout a credit beats is withdrawn: after the
        last rank returns the clock does not move on to a dead timer."""

        def program(ctx):
            buf = ctx.alloc(256 * KiB)
            if ctx.comm.rank == 0:
                yield from ctx.comm.send(buf, dest=1)
            else:
                yield from ctx.comm.recv(buf, source=0)
            return ctx.now

        cluster = Cluster(n_nodes=2, faults=FaultPlan(seed=1))
        results = cluster.run(program).results
        assert cluster.engine.now == max(results)

    def test_pt2pt_gives_up_after_bounded_retransmits(self):
        from repro.mpi.errors import TransferAborted

        program = pt2pt_program("strided")
        plan = FaultPlan(seed=1, transient_rate=1.0, max_consecutive=10**9)
        faulty = Cluster(n_nodes=2, faults=plan)
        with pytest.raises(TransferAborted):
            faulty.run(program)


class TestOscRecovery:
    """One-sided differential oracle: direct, degraded, and torn paths."""

    @staticmethod
    def osc_program(nbytes=8 * KiB, rounds=6, shared=True, pieces=1):
        """Each round rank 0 puts ``nbytes`` into rank 1's window in
        ``pieces`` puts, then fences twice."""
        step = nbytes // pieces

        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(nbytes, shared=shared)
            yield from win.fence()
            if comm.rank == 0:
                for i in range(rounds):
                    data = (np.arange(nbytes, dtype=np.uint8) + i) % 241
                    for at in range(0, nbytes, step):
                        yield from win.put(data[at : at + step], target=1,
                                           target_disp=at)
                    yield from win.fence()
                    yield from win.fence()
                return None
            results = []
            for _ in range(rounds):
                yield from win.fence()
                results.append(bytes(win.local_view()))
                yield from win.fence()
            return results

        return program

    @seeds
    def test_osc_differential_oracle(self, seed):
        program = self.osc_program()
        reference = Cluster(n_nodes=2).run(program).results[1]
        plan = FaultPlan(seed=seed, transient_rate=0.4)
        faulty = Cluster(n_nodes=2, faults=plan)
        got = faulty.run(program).results[1]
        assert got == reference
        assert plan.total_injected > 0
        assert total_recovery(faulty)["retries"] > 0

    @seeds
    def test_osc_private_batch_differential_oracle(self, seed):
        """Private memory: each round's 128 puts of 64 B ship at the fence
        as one emulated put; a lost or torn shipment is resent whole."""
        program = self.osc_program(shared=False, pieces=128)
        reference = Cluster(n_nodes=2).run(program).results[1]
        plan = FaultPlan(seed=seed, transient_rate=0.25, torn_rate=0.25)
        faulty = Cluster(n_nodes=2, faults=plan)
        got = faulty.run(program).results[1]
        assert got == reference
        assert plan.total_injected > 0
        assert total_recovery(faulty)["retries"] > 0
        assert faulty.metrics.snapshot()["fabric.interrupts"] == 6

    @seeds
    def test_osc_private_get_batch_differential_oracle(self, seed):
        """Private memory: each round's 128 gets of 64 B ship at the fence
        as one emulated get; a lost response is resent whole, and every
        buffer holds its round's bytes after the fence."""
        nbytes, rounds, step = 8 * KiB, 6, 64
        patterns = [((np.arange(nbytes) + 7 * i) % 241).astype(np.uint8)
                    for i in range(rounds)]

        def program(ctx):
            win = yield from ctx.comm.win_create(nbytes, shared=False)
            rounds_seen = []
            for pattern in patterns:
                win.local_view()[:] = pattern
                yield from win.fence()
                gets = []
                if ctx.comm.rank == 0:
                    for at in range(0, nbytes, step):
                        gets.append((yield from win.get(step, 1, at)))
                yield from win.fence()
                rounds_seen.append(b"".join(map(bytes, gets)))
            return rounds_seen

        reference = Cluster(n_nodes=2).run(program).results[0]
        assert reference == list(map(bytes, patterns))
        plan = FaultPlan(seed=seed, transient_rate=0.25, torn_rate=0.25)
        faulty = Cluster(n_nodes=2, faults=plan)
        assert faulty.run(program).results[0] == reference
        assert plan.total_injected > 0
        assert total_recovery(faulty)["retries"] > 0
        assert faulty.metrics.snapshot()["fabric.interrupts"] == rounds

    @seeds
    def test_osc_unmap_degrades_to_emulation(self, seed):
        program = self.osc_program()
        reference = Cluster(n_nodes=2).run(program).results[1]
        plan = FaultPlan(seed=seed, unmap_after=2)
        faulty = Cluster(n_nodes=2, faults=plan)
        got = faulty.run(program).results[1]
        assert got == reference
        assert plan.counters[FaultKind.UNMAP] == 1
        assert total_recovery(faulty)["fallbacks"] > 0

    @seeds
    def test_osc_get_survives_faults(self, seed):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(1 * KiB, shared=True)
            view = win.local_view()
            view[:] = (np.arange(1 * KiB, dtype=np.uint8) + comm.rank) % 239
            yield from win.fence()
            if comm.rank == 0:
                data = yield from win.get(1 * KiB, target=1, target_disp=0)
                yield from win.fence()
                return bytes(data)
            yield from win.fence()
            return None

        reference = Cluster(n_nodes=2).run(program).results[0]
        plan = FaultPlan(seed=seed, transient_rate=0.5)
        faulty = Cluster(n_nodes=2, faults=plan)
        got = faulty.run(program).results[0]
        assert got == reference


class TestCollectivesRecovery:
    """Collectives ride the same transport: the oracle covers bcast,
    allgather and alltoall under every fault class at once."""

    @staticmethod
    def collectives_program(nbytes=24 * KiB):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(nbytes)
            if comm.rank == 0:
                buf.read()[:] = np.arange(nbytes, dtype=np.uint8) % 233
            yield from comm.bcast(buf, root=0)

            send = ctx.alloc(2 * KiB)
            send.read()[:] = (np.arange(2 * KiB, dtype=np.uint8)
                              + 31 * comm.rank) % 227
            gathered = ctx.alloc(2 * KiB * comm.size)
            yield from comm.allgather(send, gathered)

            sendall = ctx.alloc(2 * KiB * comm.size)
            sendall.read()[:] = (np.arange(2 * KiB * comm.size,
                                           dtype=np.uint8)
                                 + 7 * comm.rank) % 229
            exchanged = ctx.alloc(2 * KiB * comm.size)
            yield from comm.alltoall(sendall, exchanged)
            return (bytes(buf.read()), bytes(gathered.read()),
                    bytes(exchanged.read()))

        return program

    @seeds
    def test_collectives_differential_oracle(self, seed):
        program = self.collectives_program()
        reference = Cluster(n_nodes=4).run(program).results
        plan = lively_plan(seed)
        faulty = Cluster(n_nodes=4, faults=plan)
        got = faulty.run(program).results
        assert got == reference
        assert plan.total_injected > 0
        assert sum(total_recovery(faulty).values()) > 0

    @seeds
    def test_collectives_survive_one_unmap(self, seed):
        program = self.collectives_program()
        reference = Cluster(n_nodes=4).run(program).results
        plan = FaultPlan(seed=seed, unmap_after=4)
        faulty = Cluster(n_nodes=4, faults=plan)
        got = faulty.run(program).results
        assert got == reference
        assert plan.counters[FaultKind.UNMAP] == 1
