"""The broadcast verdict and the chained broadcast's gate.

A chained hop is one rendezvous message whose send writes chunk ``k``
only once the hop's receive has put chunk ``k`` into user memory
(``repro.mpi.transport.scheduler.Gate``).  These tests hold the chain
byte-exact where the gate opens late (a generic receive, a torn stream,
a slow predecessor) and hold the default broadcast to the better of the
two forced algorithms on a grid of rings, ringlets and sizes: the
collective form of the self-consistent performance guidelines.
"""

from functools import partial

import numpy as np
import pytest

from repro import BYTE, DOUBLE, Cluster, NonContigMode, ProtocolConfig, Vector
from repro._units import KiB, MiB
from repro.hardware.sci.faults import FaultPlan
from repro.hardware.sci.topology import RingOfRings
from repro.mpi.coll.collectives import _ALGORITHMS, _stage_cycles
from repro.mpi.flatten import get_plan, reset_plan_cache
from repro.mpi.pt2pt.engine import RankDevice
from repro.mpi.transport import ChunkedCollectivesPolicy
from repro.mpi.transport.scheduler import Gate, TransferScheduler

from ._guidelines import Forced, assert_within_bound

SENTINEL = 0xA5


class TestVerdict:
    @pytest.mark.parametrize("total, members, chain", [
        (4 * MiB, 8, True),      # 6 + 64 cycles against 3 x 64
        (128 * KiB, 8, False),   # 6 + 2 against 3 x 2
        (192 * KiB, 8, False),   # 6 + 3 == 3 x 3: ties go to the tree
        (96 * KiB, 3, True),     # 1 + 2 against 2 x 2
        (256 * KiB, 4, True),    # 2 + 4 against 2 x 4
        (128 * KiB, 4, False),   # 2 + 2 == 2 x 2
    ])
    def test_priced_in_rendezvous_cycles(self, total, members, chain):
        scheduler = Cluster(n_nodes=2).world.device(0).scheduler
        key = ("coll", True, False, total, members)
        assert scheduler.cheapest(key, _ALGORITHMS, partial(
            _stage_cycles, total, members, 64 * KiB)) == ("chain" if chain else "tree")


def _bcast(cluster, nbytes, datatype=BYTE, count=None):
    """Broadcast from rank 0 into sentinel-filled buffers; every rank's
    whole buffer afterwards."""
    def program(ctx):
        buf = ctx.alloc(nbytes)
        view = buf.read()
        if ctx.rank == 0:
            view[:] = (np.arange(nbytes) % 251).astype(np.uint8)
        else:
            view[:] = SENTINEL
        yield from ctx.comm.bcast(buf, root=0, datatype=datatype,
                                  count=count if count is not None else nbytes)
        return view.copy()

    reset_plan_cache()
    return cluster.run(program).results


class TestGate:
    def test_generic_receive_opens_the_gate_at_its_final_unpack(self, monkeypatch):
        raised: dict[int, list[int]] = {}
        real_raise = Gate.raise_to

        def spy(self, mark):
            raised.setdefault(id(self), []).append(mark)
            real_raise(self, mark)

        monkeypatch.setattr(Gate, "raise_to", spy)
        dtype = Vector(2048, 16, 32, DOUBLE).commit()  # 256 KiB packed
        cluster = Cluster(
            n_nodes=4, policy=ChunkedCollectivesPolicy(),
            protocol=ProtocolConfig(noncontig_mode=NonContigMode.GENERIC))
        results = _bcast(cluster, dtype.extent, datatype=dtype, count=1)
        plan = get_plan(dtype.flattened, 1)
        expected = np.full(dtype.extent, SENTINEL, dtype=np.uint8)
        plan.execute_unpack(expected, 0, 0, plan.execute_pack(results[0], 0))
        for got in results[1:]:
            np.testing.assert_array_equal(got, expected)
        # Two forwarding members, each gate raised once, to the whole.
        assert sorted(raised.values()) == [[dtype.size], [dtype.size]]

    def test_torn_stream_is_byte_exact(self):
        cluster = Cluster(n_nodes=4, policy=ChunkedCollectivesPolicy(),
                          faults=FaultPlan(seed=3, torn_rate=0.3))
        results = _bcast(cluster, 512 * KiB)
        for got in results[1:]:
            np.testing.assert_array_equal(got, results[0])
        assert sum(cluster.world.device(r).recovery["resumes"]
                   for r in range(4)) > 0

    def test_eager_forward_waits_for_the_whole_message(self):
        # A rendezvous chunk above the eager threshold: the chain's
        # messages go eager, so each forward waits for all of its bytes.
        cluster = Cluster(n_nodes=4, policy=ChunkedCollectivesPolicy(),
                          protocol=ProtocolConfig(eager_threshold=128 * KiB))
        results = _bcast(cluster, 96 * KiB)
        for got in results[1:]:
            np.testing.assert_array_equal(got, results[0])
        assert [cluster.world.device(r).counters["eager"] for r in range(4)] \
            == [1, 1, 1, 0]

    def test_slow_predecessor_holds_every_chunk(self, monkeypatch):
        """Ranks 0-1 and 2-3 share a node: rank 2 receives over SCI
        from rank 1 and forwards by a faster local copy to rank 3, so
        its send keeps catching up with the landed mark."""
        gates: dict[int, Gate] = {}
        written: list[tuple[int, int, int]] = []  # rank, chunk end, mark
        blocked = []
        real_send, real_write = RankDevice.send, TransferScheduler._write_chunk
        real_wait = Gate.wait

        def spy_send(self, *args, gate=None, **kw):
            if gate is not None:
                gates[self.rank] = gate
            return real_send(self, *args, gate=gate, **kw)

        def spy_write(self, dst, region, offset, data, *rest, plan, stream_off):
            gate = gates.get(self.device.rank)
            if gate is not None:
                written.append((self.device.rank, stream_off + data.nbytes,
                                gate.mark))
            return real_write(self, dst, region, offset, data, *rest,
                              plan=plan, stream_off=stream_off)

        def spy_wait(self, upto):
            if self.mark < upto:
                blocked.append(self)
            return real_wait(self, upto)

        monkeypatch.setattr(RankDevice, "send", spy_send)
        monkeypatch.setattr(TransferScheduler, "_write_chunk", spy_write)
        monkeypatch.setattr(Gate, "wait", spy_wait)
        nbytes = 512 * KiB
        results = _bcast(Cluster(n_nodes=2, procs_per_node=2,
                                 policy=ChunkedCollectivesPolicy()), nbytes)
        for got in results[1:]:
            np.testing.assert_array_equal(got, results[0])
        assert {rank for rank, _, _ in written} == {1, 2}
        assert all(end <= mark for _, end, mark in written), written
        assert sum(rank == 2 for rank, _, _ in written) == nbytes // (64 * KiB)
        assert blocked.count(gates[2]) >= nbytes // (64 * KiB) - 1


# -- the default is never slower than a forced algorithm ------------------------

TOPOLOGIES = {f"ring-{n}": (lambda n=n: {"n_nodes": n}) for n in range(3, 9)}
TOPOLOGIES.update({
    f"ringlets-{g}x{r}": (lambda g=g, r=r: {
        "n_nodes": g * r, "topology": RingOfRings(g, r)})
    for g, r in ((3, 4), (2, 4))})
SIZES = (16 * KiB, 64 * KiB, 128 * KiB, 192 * KiB, 256 * KiB, 1 * MiB)


OPS = ("bcast", "reduce", "allreduce")


def _times(cluster_args, nbytes, policy):
    """Simulated µs of one bcast, one reduce (to the last rank, so the
    chain wraps round) and one allreduce, barrier to barrier."""
    def program(ctx):
        comm = ctx.comm
        buf, recv = ctx.alloc(nbytes), ctx.alloc(nbytes)
        calls = (
            lambda: comm.bcast(buf, root=0, datatype=BYTE, count=nbytes),
            lambda: comm.reduce(buf, recv, root=comm.size - 1, op="sum",
                                datatype=BYTE, count=nbytes),
            lambda: comm.allreduce(buf, recv, op="sum", datatype=BYTE,
                                   count=nbytes))
        times = []
        yield from comm.barrier()
        for call in calls:
            t0 = ctx.now
            yield from call()
            yield from comm.barrier()
            times.append(ctx.now - t0)
        return times

    reset_plan_cache()
    return Cluster(policy=policy, **cluster_args).run(program).results[0]


def _assert_self_consistent(cluster_args, nbytes):
    default = _times(cluster_args, nbytes, None)
    tree = _times(cluster_args, nbytes, Forced(coll="tree"))
    chain = _times(cluster_args, nbytes, Forced(coll="chain"))
    for op, d, t, c in zip(OPS, default, tree, chain):
        assert_within_bound(d, min(t, c), op, nbytes, d, t, c)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_default_is_never_slower_than_a_forced_algorithm(topology):
    for nbytes in SIZES:
        _assert_self_consistent(TOPOLOGIES[topology](), nbytes)


def test_default_chains_four_mib_on_the_paper_ringlet():
    _assert_self_consistent({"n_nodes": 8}, 4 * MiB)
