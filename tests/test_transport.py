"""Tests for the unified transport layer (repro.mpi.transport).

Covers the policy decision table, the scheduler's per-chunk accounting,
messages shorter than their receive buffer, the chained broadcast — all
byte-for-byte against the monolithic paths — and a grep-based guard that
chunk-group computation stays inside the transport / flatten packages.
"""

import dataclasses
import pathlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro._units import KiB
from repro.bench.noncontig import measure_point
from repro.cluster import Cluster
from repro.hardware.sci.faults import FaultPlan, SCITransientError, TornTransferError
from repro.hardware.sci.segments import SegmentUnmappedError
from repro.mpi.datatypes import DOUBLE, Indexed, Subarray, Vector
from repro.mpi.errors import CommunicationError, TransferAborted, TransferFault
from repro.mpi.flatten import get_plan
from repro.hardware.params import DEFAULT_NODE
from repro.mpi.pt2pt import DEFAULT_PROTOCOL, NonContigMode, ProtocolConfig
from repro.hardware import MemorySystem
from repro.hardware.sci.transactions import AccessRun, remote_write_cost
from repro.mpi.pt2pt.costs import direct_remote_chunk_duration
from repro.mpi.transport import (
    ChunkedCollectivesPolicy,
    OSCStrategy,
    PaperThresholdPolicy,
    Protocol,
    RecoveryPolicy,
    TransferMode,
    TransferPolicy,
)
from repro.mpi.transport.store import RemoteStore

from ._guidelines import Forced, assert_within_bound
from .test_flatten_engine import datatype_strategy


class TestTransferPolicy:
    def test_protocol_thresholds(self):
        pol = TransferPolicy()
        cfg = DEFAULT_PROTOCOL
        assert pol.protocol(cfg, 0) == Protocol.SHORT
        assert pol.protocol(cfg, cfg.short_threshold) == Protocol.SHORT
        assert pol.protocol(cfg, cfg.short_threshold + 1) == Protocol.EAGER
        assert pol.protocol(cfg, cfg.eager_threshold) == Protocol.EAGER
        assert pol.protocol(cfg, cfg.eager_threshold + 1) == Protocol.RNDV

    def test_transfer_mode_forced(self):
        contig = DOUBLE.commit()
        strided = Vector(4, 1, 3, DOUBLE).commit()
        pol = TransferPolicy()
        for mode, expect in [
            (NonContigMode.GENERIC, TransferMode.GENERIC),
            (NonContigMode.DIRECT, TransferMode.DIRECT),
            (NonContigMode.DMA, TransferMode.DMA),
        ]:
            cfg = DEFAULT_PROTOCOL.with_mode(mode)
            for protocol in (Protocol.SHORT, Protocol.EAGER, Protocol.RNDV):
                assert pol.transfer_mode(cfg, contig,
                                         protocol) == TransferMode.CONTIGUOUS
                # A forced mode leaves nothing to the verdict.
                assert pol.transfer_mode(cfg, strided, protocol) == expect

    def test_auto_is_the_default_verdict(self):
        assert DEFAULT_PROTOCOL.noncontig_mode == NonContigMode.AUTO
        pol, cfg = TransferPolicy(), DEFAULT_PROTOCOL
        strided = Vector(4, 1, 3, DOUBLE).commit()
        assert pol.transfer_mode(cfg, DOUBLE.commit(),
                                 Protocol.RNDV) == TransferMode.CONTIGUOUS
        # Short messages pack inline in every mode: DIRECT, unpriced.
        assert pol.transfer_mode(cfg, strided,
                                 Protocol.SHORT) == TransferMode.DIRECT
        for protocol in (Protocol.EAGER, Protocol.RNDV):
            assert pol.transfer_mode(cfg, strided, protocol) is None

    # The base policy forces nothing: every priced decision is its verdict
    # (tests/_guidelines.py holds each within 5 % of every forced
    # candidate).  The paper's policy forces the one-sided strategy by its
    # 2 KiB rule; the chunked policy forces the flat broadcast onto the
    # chain and leaves every reduction stage alone.  Below three ranks, or
    # at one rendezvous chunk, no stage asks (the chain is the tree there,
    # pinned in tests/test_collectives_extended.py).  A put to or a get
    # from a private window (key ends ``mapped=False``) is priced,
    # emulated or batched, and the paper's policy emulates it call by
    # call, a get whatever its size or shape.
    @pytest.mark.parametrize("policy, key, forced", [
        (TransferPolicy(), ("mode", None, 1, 4 * KiB, False, True), None),
        (TransferPolicy(), ("osc", "get", 8, True, None, 0, 1, True), None),
        (TransferPolicy(), ("coll", True, False, 256 * KiB, 4), None),
        (PaperThresholdPolicy(), ("osc", "put", 8, True, None, 0, 1, True),
         OSCStrategy.DIRECT),
        (PaperThresholdPolicy(), ("osc", "put", 8, False, (None, 1), 0, 1, True),
         OSCStrategy.EMULATED),
        (PaperThresholdPolicy(), ("osc", "put", 8, True, None, 0, 1, False),
         OSCStrategy.EMULATED),
        (TransferPolicy(), ("osc", "put", 8, True, None, 0, 1, False), None),
        (TransferPolicy(), ("osc", "get", 8, True, None, 0, 1, False), None),
        (PaperThresholdPolicy(), ("osc", "get", 8, True, None, 0, 1, False),
         OSCStrategy.EMULATED),
        (PaperThresholdPolicy(), ("osc", "get", 64 * KiB, False, (None, 1), 0, 1,
                                  False), OSCStrategy.EMULATED),
        (PaperThresholdPolicy(), ("osc", "get", 2 * KiB, True, None, 0, 1, True),
         OSCStrategy.DIRECT),
        (PaperThresholdPolicy(), ("osc", "get", 2 * KiB + 1, True, None, 0, 1, True),
         OSCStrategy.REMOTE_PUT),
        (PaperThresholdPolicy(), ("osc", "get", 64, False, (None, 1), 0, 1, True),
         OSCStrategy.REMOTE_PUT),
        (PaperThresholdPolicy(), ("mode", None, 1, 4 * KiB, False, True), None),
        (PaperThresholdPolicy(), ("coll", True, False, 256 * KiB, 4), None),
        (ChunkedCollectivesPolicy(), ("coll", True, False, 256 * KiB, 4), "chain"),
        (ChunkedCollectivesPolicy(), ("coll", True, True, 256 * KiB, 4), None),
        (ChunkedCollectivesPolicy(), ("coll", False, False, 256 * KiB, 4),
         None),
        (ChunkedCollectivesPolicy(), ("coll", False, True, 256 * KiB, 4), None),
        (ChunkedCollectivesPolicy(), ("osc", "get", 8, True, None, 0, 1, True), None),
    ])
    def test_force(self, policy, key, forced):
        assert policy.force(key) == forced

    def test_a_policy_carries_no_protocol_config(self):
        """The thresholds a policy applies are the world's config; a
        policy that tried to carry its own is refused, not ignored."""
        cfg = ProtocolConfig(eager_threshold=4 * KiB)
        with pytest.raises(TypeError):
            Cluster(2, policy=TransferPolicy(config=cfg))
        with pytest.raises(TypeError):
            TransferPolicy(cfg)
        pol = ChunkedCollectivesPolicy(hier_collectives=False)
        assert pol.protocol(cfg, 4 * KiB + 1) == Protocol.RNDV
        assert pol.describe(cfg)["eager_threshold"] == 4 * KiB
        assert pol.describe(cfg)["hier_collectives"] == 0


def _one_way(dtype, count=1, mode=None, internode=True):
    """Simulated one-way time of one ``count x dtype`` message from rank
    0 to rank 1 (default config unless a mode is forced); asserts the
    receiver's packed stream equals the sender's."""
    protocol = DEFAULT_PROTOCOL if mode is None else DEFAULT_PROTOCOL.with_mode(mode)
    cluster = (Cluster(n_nodes=2, protocol=protocol) if internode else
               Cluster(n_nodes=1, procs_per_node=2, protocol=protocol))
    plan = get_plan(dtype.flattened, count)
    span = plan.bounds[1]

    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(span)
        if comm.rank == 0:
            buf.write((np.arange(span) % 251).astype(np.uint8))
        yield from comm.barrier()
        t0 = ctx.now
        if comm.rank == 0:
            yield from comm.send(buf, dest=1, tag=0, datatype=dtype, count=count)
            return plan.execute_pack(buf.read(), 0).tobytes()
        yield from comm.recv(buf, source=0, tag=0, datatype=dtype, count=count)
        return ctx.now - t0, plan.execute_pack(buf.read(), 0).tobytes()

    sent, (elapsed, received) = cluster.run(program).results
    assert received == sent
    return elapsed


#: The colocation halo's x-face: 48 blocks of 8 B, a 384 B eager message.
HALO_X_FACE = Subarray((6, 14, 14), (4, 12, 1), (1, 1, 1), DOUBLE)


class TestVerdict:
    """AUTO prices GENERIC, DIRECT and DMA per message and side, and the
    default config never loses to the best forced mode."""

    @pytest.mark.parametrize("blocksize, internode, sender, receiver", [
        (8, True, TransferMode.DMA, TransferMode.DIRECT),
        (16, True, TransferMode.DMA, TransferMode.DIRECT),
        (32, True, TransferMode.DIRECT, TransferMode.DIRECT),
        (1 * KiB, True, TransferMode.DIRECT, TransferMode.DIRECT),
        (8, False, TransferMode.DIRECT, TransferMode.DIRECT),
        (1 * KiB, False, TransferMode.DIRECT, TransferMode.DIRECT),
    ])
    def test_rendezvous_vector_verdicts(self, blocksize, internode, sender,
                                        receiver):
        """256 KiB Vector, stride 2 x block (EXPERIMENTS.md E2, verdict table)."""
        doubles = blocksize // 8
        vec = Vector(256 * KiB // blocksize, doubles, 2 * doubles, DOUBLE)
        plan = get_plan(vec.commit().flattened, 1)
        cluster = (Cluster(n_nodes=2) if internode else
                   Cluster(n_nodes=1, procs_per_node=2))
        tx, rx = (cluster.world.device(r).scheduler for r in (0, 1))
        assert tx.verdict(plan, plan.total, 1, True) == sender
        assert rx.verdict(plan, plan.total, 0, False) == receiver

    def test_one_small_leaf_does_not_flip_the_message(self):
        """4096 leaves of 16 B with one of 8 B: the verdict prices every
        block, so the one small leaf leaves the message DIRECT."""
        lengths = [2] * 4096
        lengths[2900] = 1
        indexed = Indexed(lengths, [4 * k for k in range(4096)], DOUBLE)
        plan = get_plan(indexed.commit().flattened, 1)
        cluster = Cluster(n_nodes=2)
        for rank, peer, sending in ((0, 1, True), (1, 0, False)):
            verdict = cluster.world.device(rank).scheduler.verdict(
                plan, plan.total, peer, sending)
            assert verdict == TransferMode.DIRECT

    def test_halo_x_face_forced_dma_is_the_eager_hybrid(self):
        """Forced DMA on an eager message packs generically and writes by
        PIO at the sender and unpacks with the ff loop at the receiver —
        a hybrid that beats both pure modes at 8 B blocks over SCI.  The
        default splits the same way on its own."""
        HALO_X_FACE.commit()
        times = {mode: _one_way(HALO_X_FACE, mode=mode) for mode in
                 (NonContigMode.GENERIC, NonContigMode.DIRECT, NonContigMode.DMA)}
        assert times == pytest.approx({NonContigMode.GENERIC: 17.87,
                                       NonContigMode.DIRECT: 21.97,
                                       NonContigMode.DMA: 12.70}, abs=0.005)
        assert_within_bound(_one_way(HALO_X_FACE), times[NonContigMode.DMA])

    def test_8_byte_blocks_over_sci_reach_dma_bandwidth(self):
        """The default at 8 B blocks over SCI is DMA's 58.1 MiB/s, not
        always-direct's 18.7."""
        assert measure_point(8, mode=NonContigMode.AUTO) >= 0.95 * 58.1

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(dtype=datatype_strategy(),
           target=st.sampled_from([100, 3 * KiB, 40 * KiB, 150 * KiB]),
           internode=st.booleans())
    def test_default_never_loses_to_a_forced_mode(self, dtype, target,
                                                  internode):
        """Random trees x short / eager / one- and three-chunk rendezvous
        x {SCI, shm}: the default is within 5 % of the best forced mode."""
        dtype.commit()
        assume(dtype.size > 0)
        count = max(1, target // dtype.size)
        best = min(_one_way(dtype, count, mode, internode) for mode in
                   (NonContigMode.GENERIC, NonContigMode.DIRECT,
                    NonContigMode.DMA))
        assert_within_bound(_one_way(dtype, count, None, internode), best)


class TestSchedulerAccounting:
    def test_chunk_stats_after_rendezvous(self):
        nbytes = 200 * KiB  # > eager threshold: rendezvous, 4 chunks

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(nbytes)
            if comm.rank == 0:
                yield from comm.send(buf, dest=1, tag=1)
            else:
                yield from comm.recv(buf, source=0, tag=1)

        cluster = Cluster(n_nodes=2)
        cluster.run(program)
        stats = cluster.world.device(0).scheduler.stats
        chunk = DEFAULT_PROTOCOL.rendezvous_chunk
        assert stats["chunks"] == -(-nbytes // chunk)
        assert stats["chunk_bytes"] == nbytes
        assert stats["chunk_time"] > 0
        # The receiver wrote nothing through its own scheduler.
        assert cluster.world.device(1).scheduler.stats["chunks"] == 0


class TestMessageShorterThanItsBuffer:
    """A message fills the packed prefix of a larger typed receive; the
    receive prices that prefix (``message_groups``' range branch)."""

    @pytest.mark.parametrize("mode, n, elapsed", [
        (None, 1, 2.2986263020833335),
        (None, 200, 135.359015750502),
        (None, 2000, 1334.1401575050202),
        (NonContigMode.GENERIC, 1, 2.2986263020833335),
        (NonContigMode.GENERIC, 200, 444.1792761671686),
        (NonContigMode.GENERIC, 2000, 4421.4727616716855),
        (NonContigMode.DIRECT, 1, 2.2986263020833335),
        (NonContigMode.DIRECT, 200, 135.359015750502),
        (NonContigMode.DIRECT, 2000, 1334.1401575050202),
        (NonContigMode.DMA, 1, 2.2986263020833335),
        (NonContigMode.DMA, 200, 298.25664595883535),
        (NonContigMode.DMA, 2000, 1834.3426609848486),
    ])
    def test_prefix_lands_and_the_rest_is_untouched(self, mode, n, elapsed):
        """Short, eager and rendezvous sends of ``n`` 64 B elements into
        ``2n + 3`` under AUTO (``None``) and each forced mode, timed at
        the receiver."""
        vec = Vector(4, 2, 3, DOUBLE).commit()
        capacity = 2 * n + 3
        span = vec.extent * capacity
        sent = (np.arange(span) % 251).astype(np.uint8)
        before = np.full(span, 0xA5, dtype=np.uint8)
        protocol = DEFAULT_PROTOCOL if mode is None else DEFAULT_PROTOCOL.with_mode(mode)

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(span)
            buf.write(sent if comm.rank == 0 else before)
            yield from comm.barrier()
            t0 = ctx.now
            if comm.rank == 0:
                yield from comm.send(buf, dest=1, tag=0, datatype=vec, count=n)
                return None
            status = yield from comm.recv(buf, source=0, tag=0, datatype=vec,
                                          count=capacity)
            return ctx.now - t0, status.nbytes, buf.read().copy()

        _, (took, nbytes, got) = Cluster(n_nodes=2, protocol=protocol).run(
            program).results
        payload = get_plan(vec.flattened, n).execute_pack(sent, 0)
        expected = before.copy()
        get_plan(vec.flattened, capacity).execute_unpack(expected, 0, 0, payload)
        assert nbytes == payload.nbytes == n * vec.size
        np.testing.assert_array_equal(got, expected)
        assert took == pytest.approx(elapsed, rel=1e-12)


class TestOneGenericGrouping:
    """A generic receive unpacks a whole message along the flattened
    type's per-leaf grouping (``message_groups``, what the recursive walk
    traverses), eager as rendezvous, and ``price`` charges the same walk:
    200 x ``Vector(4, 2, 3, DOUBLE)`` (12,800 B, blocks that abut across
    instances) is ``[(16, 800)]``, 162.90 us, not the plan's 399
    coalesced runs (154.94 us)."""

    def test_eager_unpack_equals_rendezvous_unpack(self, monkeypatch):
        vec = Vector(4, 2, 3, DOUBLE).commit()
        plan = get_plan(vec.flattened, 200)
        charged = []
        walk = MemorySystem.walk_cost

        def recording(self, groups, loop, cold, config=None):
            cost = walk(self, groups, loop, cold, config)
            if loop == "generic":
                charged.append(cost)
            return cost

        def program(ctx):
            buf = ctx.alloc(vec.extent * 200)
            if ctx.comm.rank == 0:
                yield from ctx.comm.send(buf, dest=1, tag=0, datatype=vec,
                                         count=200)
            else:
                yield from ctx.comm.recv(buf, source=0, tag=0, datatype=vec,
                                         count=200)

        monkeypatch.setattr(MemorySystem, "walk_cost", recording)
        for eager_threshold in (16 * KiB, 4 * KiB):  # eager, rendezvous
            protocol = ProtocolConfig(eager_threshold=eager_threshold,
                                      noncontig_mode=NonContigMode.GENERIC)
            cluster = Cluster(n_nodes=2, protocol=protocol)
            cluster.run(program)
            assert cluster.metrics.snapshot()["pt2pt.eager"] == (
                eager_threshold > plan.total)
        rx = Cluster(n_nodes=2).world.device(1).scheduler
        rx.price(TransferMode.GENERIC, plan, plan.total, False, False)
        # Per run the sender's pack and the receiver's unpack, then price.
        assert charged == pytest.approx([162.90] * 5, abs=0.005)


class TestBufferOwnership:
    """Who may alias the sender's buffer, and for how long (see
    ``docs/PROTOCOLS.md``, "What a transfer copies on the host")."""

    def test_short_send_keeps_its_copy(self):
        """A short send returns before the receiver matches: its payload
        must be a copy, or overwriting the buffer in the same step would
        reach the receiver."""
        original = (np.arange(64) % 251).astype(np.uint8)

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(original.nbytes)
            if comm.rank == 0:
                buf.write(original)
                yield from comm.send(buf, dest=1, tag=1)
                buf.read()[:] = 0xFF
                return None
            yield ctx.cluster.engine.timeout(500.0)
            yield from comm.recv(buf, source=0, tag=1)
            return buf.read().tobytes()

        assert Cluster(n_nodes=2).run(program).results[1] == original.tobytes()

    @pytest.mark.parametrize("nbytes, chunks", [(8 * KiB, 1), (192 * KiB, 3)],
                             ids=["eager", "rndv"])
    def test_packet_buffer_writes_alias_the_sender(self, monkeypatch, nbytes,
                                                   chunks):
        """Contiguous eager and rendezvous writes read the sender's memory
        itself, and every write lands before ``send`` returns."""
        writes = []
        write_packed = RemoteStore.write_packed

        def recording(store, dst, region, offset, data, *args):
            yield from write_packed(store, dst, region, offset, data, *args)
            device = store.device
            writes.append((np.shares_memory(data, device.node.space.mem),
                           device.engine.now))

        monkeypatch.setattr(RemoteStore, "write_packed", recording)
        payload = (np.arange(nbytes) % 249).astype(np.uint8)

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(nbytes)
            if comm.rank == 0:
                buf.write(payload)
                yield from comm.send(buf, dest=1, tag=1)
                return list(writes), ctx.now
            yield from comm.recv(buf, source=0, tag=1)
            return buf.read().tobytes()

        (before_return, returned_at), received = \
            Cluster(n_nodes=2).run(program).results
        assert received == payload.tobytes()
        assert before_return == writes and len(writes) == chunks
        assert all(aliased and at <= returned_at for aliased, at in writes)


LANDING_BYTES = 192 * KiB
#: 8 B blocks at a 16 B stride: ``LANDING_BYTES`` of payload spread over
#: twice that extent.
LANDING_VECTOR = Vector(LANDING_BYTES // 8, 1, 2, DOUBLE).commit()


def _landing_extent(datatype) -> int:
    return LANDING_BYTES if datatype is None else 2 * LANDING_BYTES


def _packed(raw: np.ndarray, datatype) -> np.ndarray:
    """The stream bytes a buffer holds under ``datatype`` (or contiguous)."""
    if datatype is None:
        return raw
    return raw.reshape(-1, 16)[:, :8].ravel()


class TestSingleLanding:
    """Rendezvous bytes land once, in the receive's destination: the
    receiver's packet buffer sets what a chunk write costs, but its pages
    never hold the chunk (see ``docs/PROTOCOLS.md``, "What a transfer
    copies on the host")."""

    SENTINEL = 0xA5

    def _deliver(self, cluster, send_type=None, recv_type=None,
                 exchange=False):
        for rank in range(cluster.n_ranks):
            device = cluster.world.device(rank)
            device.rndv_region.local_view()[:] = self.SENTINEL
        source = (np.arange(_landing_extent(send_type)) % 251).astype(np.uint8)

        def program(ctx):
            comm = ctx.comm
            out = ctx.alloc(source.nbytes)
            into = ctx.alloc(_landing_extent(recv_type))
            out.write(source)
            peer = 1 - comm.rank
            send = dict(send_datatype=send_type, send_count=send_type and 1)
            recv = dict(recv_datatype=recv_type, recv_count=recv_type and 1)
            if exchange:
                yield from comm.sendrecv(out, peer, into, peer, **send, **recv)
            elif comm.rank == 0:
                yield from comm.send(out, 1, datatype=send_type,
                                     count=send_type and 1)
                return None
            else:
                yield from comm.recv(into, 0, datatype=recv_type,
                                     count=recv_type and 1)
            return _packed(into.read(), recv_type).copy()

        result = cluster.run(program)
        expected = _packed(source, send_type)
        for got in result.results:
            if got is not None:
                assert np.array_equal(got, expected)
        for rank in range(cluster.n_ranks):
            buffer = cluster.world.device(rank).rndv_region.local_view()
            assert (buffer == self.SENTINEL).all(), rank
        return [cluster.world.device(rank) for rank in range(cluster.n_ranks)]

    def test_event_stepped_chunks(self):
        # Two streams in flight keep the engine busy: no window engages.
        devices = self._deliver(Cluster(n_nodes=2), exchange=True)
        assert sum(d.scheduler.fastpath["windows"] for d in devices) == 0
        assert sum(d.scheduler.stats["chunks"] for d in devices) == 6

    def test_stream_window(self):
        protocol = dataclasses.replace(DEFAULT_PROTOCOL,
                                       rendezvous_chunk=16 * KiB)
        devices = self._deliver(Cluster(n_nodes=2, protocol=protocol))
        assert devices[0].scheduler.fastpath["windows"] == 1

    @pytest.mark.parametrize("mode", [NonContigMode.GENERIC,
                                      NonContigMode.DMA])
    def test_forced_mode(self, mode):
        protocol = dataclasses.replace(DEFAULT_PROTOCOL, noncontig_mode=mode)
        self._deliver(Cluster(n_nodes=2, protocol=protocol),
                      send_type=LANDING_VECTOR, recv_type=LANDING_VECTOR)

    def test_vector_receive(self):
        self._deliver(Cluster(n_nodes=2), recv_type=LANDING_VECTOR)

    def test_same_node(self):
        self._deliver(Cluster(n_nodes=1, procs_per_node=2))

    def test_torn_and_resumed(self):
        devices = self._deliver(Cluster(
            n_nodes=2, faults=FaultPlan(seed=3, torn_rate=0.5)))
        assert devices[0].recovery["resumes"] > 0


def _run_bcast(policy, nbytes, n_nodes=4, datatype=None, count=None,
               extent=None):
    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(extent or nbytes)
        if comm.rank == 0:
            buf.write((np.arange(extent or nbytes, dtype=np.int64) % 253)
                      .astype(np.uint8))
        yield from comm.bcast(buf, root=0, datatype=datatype,
                              count=count if count is not None else nbytes)
        return buf.read().tobytes()

    return Cluster(n_nodes=n_nodes, policy=policy).run(program)


class TestChunkedCollectives:
    """The chained broadcast (one gated rendezvous message per hop)
    against the binomial tree, both forced."""

    def test_chunked_bcast_bytes_equal_monolithic(self):
        nbytes = 300 * KiB
        mono = _run_bcast(Forced(coll="tree"), nbytes)
        chunk = _run_bcast(ChunkedCollectivesPolicy(), nbytes)
        assert mono.results == chunk.results
        assert len(set(chunk.results)) == 1

    def test_chunked_bcast_noncontiguous(self):
        dtype = Vector(16, 4, 8, DOUBLE).commit()
        count = 400  # 200 KiB packed: four rendezvous chunks
        extent, total = dtype.extent * count, dtype.size * count
        mono = _run_bcast(Forced(coll="tree"), total, datatype=dtype, count=count,
                          extent=extent)
        chunk = _run_bcast(ChunkedCollectivesPolicy(), total, datatype=dtype,
                           count=count, extent=extent)
        plan = get_plan(dtype.flattened, count)
        for m, c in zip(mono.results, chunk.results):
            np.testing.assert_array_equal(
                plan.execute_pack(np.frombuffer(c, dtype=np.uint8), 0),
                plan.execute_pack(np.frombuffer(m, dtype=np.uint8), 0),
            )

    def test_chunked_bcast_faster(self):
        nbytes = 512 * KiB
        mono = _run_bcast(Forced(coll="tree"), nbytes)
        chunk = _run_bcast(ChunkedCollectivesPolicy(), nbytes)
        assert chunk.elapsed < mono.elapsed

    def test_allgather_alltoall_unaffected(self):
        """The chunked policy keeps already-pipelined collectives
        monolithic — identical bytes and identical simulated time."""
        nbytes = 32 * KiB

        def program(ctx):
            comm = ctx.comm
            send = ctx.alloc(nbytes)
            send.write((np.full(nbytes, comm.rank, dtype=np.uint8)))
            gathered = ctx.alloc(nbytes * comm.size)
            yield from comm.allgather(send, gathered, count=nbytes)
            exchanged = ctx.alloc(nbytes * comm.size)
            sendall = ctx.alloc(nbytes * comm.size)
            sendall.write((np.arange(nbytes * comm.size, dtype=np.int64)
                           % 199).astype(np.uint8))
            yield from comm.alltoall(sendall, exchanged, count=nbytes)
            return gathered.read().tobytes() + exchanged.read().tobytes()

        mono = Cluster(n_nodes=4).run(program)
        chunk = Cluster(n_nodes=4, policy=ChunkedCollectivesPolicy()).run(program)
        assert mono.results == chunk.results
        assert chunk.elapsed == pytest.approx(mono.elapsed)


GROUPING_HELPERS = re.compile(
    r"block_length_groups|groups_in_range|_chunk_groups|as_access_run"
)
ALLOWED = ("mpi/transport/", "mpi/flatten/")


class TestGroupingStaysInTransport:
    def test_no_chunk_grouping_outside_transport(self):
        """No module outside the transport (and the flatten package that
        defines them) computes chunk groups or access runs — the refactor
        guard the transport layer promises."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            if any(rel.startswith(a) for a in ALLOWED):
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                stripped = line.split("#", 1)[0]
                if GROUPING_HELPERS.search(stripped):
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
        assert not offenders, (
            "chunk-group computation leaked outside mpi/transport:\n"
            + "\n".join(offenders)
        )


class TestCostTableKeys:
    """Cost-table keys carry the target *alignment*, never the offset."""

    @pytest.mark.parametrize("write_combining", [True, False])
    def test_memoised_duration_equals_uncached_at_absolute_offset(
            self, write_combining):
        params = DEFAULT_NODE.with_write_combining(write_combining)
        cluster = Cluster(n_nodes=2, node_params=params)
        device = cluster.world.device(0)
        scheduler = device.scheduler
        rng = np.random.default_rng(20020415 + write_combining)
        align = params.write_alignment
        for _ in range(600):
            # Few distinct (alignment, geometry) pairs, many offsets: most
            # lookups reuse an entry computed at another absolute offset.
            offset = (int(rng.choice([0, 4, 8, 20, 32, 61]))
                      + align * int(rng.integers(0, 1024)))
            src_cached = bool(rng.integers(0, 2))
            if rng.integers(0, 2):
                nbytes = int(rng.choice([8, 100, 4100]))
                groups = [(nbytes, 1)]
                expected = (remote_write_cost(
                    AccessRun.contiguous(offset, nbytes), params,
                    src_cached=src_cached).duration
                    + params.adapter.pio_op_overhead)
                mode = TransferMode.CONTIGUOUS
            else:
                groups = [(int(rng.choice([8, 256])), int(rng.integers(1, 3))),
                          (512, int(rng.integers(0, 2)))]
                nbytes = sum(length * count for length, count in groups)
                expected = direct_remote_chunk_duration(
                    params, device.node.memory, offset, groups,
                    device.config, src_cached)
                mode = TransferMode.DIRECT
            got = scheduler.chunk_write_duration(mode, offset, nbytes, groups,
                                                 src_cached)
            assert got == expected, (mode, offset, groups, src_cached)
        stats = scheduler.costs.stats()
        assert stats["hits"] > stats["misses"]

    def test_strided_put_sweep_reuses_one_entry_per_alignment(self):
        """Puts emulated call by call (the paper's policy; the default
        ships the sweep as one batch) price each shipment from one cost
        table entry per alignment."""
        access, window = 1 * KiB, 128 * KiB

        def program(ctx):
            win = yield from ctx.comm.win_create(window, shared=False)
            data = np.zeros(access, dtype=np.uint8)
            yield from win.fence()
            for offset in range(0, window, 2 * access):
                yield from win.put(data, 1 - ctx.comm.rank, offset)
            yield from win.fence()

        cluster = Cluster(n_nodes=2, policy=PaperThresholdPolicy())
        cluster.run(program)
        counts = cluster.metrics.snapshot()
        hits = counts["engine.fastpath_table_hits"]
        misses = counts["engine.fastpath_table_misses"]
        assert hits + misses == 2 * (window // (2 * access))
        assert hits / (hits + misses) > 0.9


class TestRecoveryLadder:
    """``RemoteStore.deliver_with_retry`` classifies the fabric's errors
    itself: attempts raise them untranslated."""

    @staticmethod
    def _ladder(errors, **hooks):
        """Run the ladder over attempts that raise ``errors`` in turn and
        then return ``"done"``.  Returns the outcome (the result, or the
        error the ladder raised), the device's recovery counters and the
        clock."""
        cluster = Cluster(n_nodes=2)
        device = cluster.world.device(0)
        pending = list(errors)

        def attempt():
            if pending:
                raise pending.pop(0)
            return "done"
            yield  # pragma: no cover - generator marker

        try:
            outcome = cluster.engine.run_process(
                device.store.deliver_with_retry(1, attempt, **hooks))
        except CommunicationError as error:
            outcome = error
        return outcome, device.recovery, cluster.engine.now

    def test_lost_transfers_retry_with_backoff(self):
        outcome, recovery, now = self._ladder(
            [SCITransientError("lost"), SCITransientError("lost")])
        assert outcome == "done"
        assert recovery["retries"] == 2 and recovery["resumes"] == 0
        assert now == 5.0 + 10.0  # RecoveryPolicy.backoff(1) + backoff(2)

    def test_torn_transfer_resumes_past_its_prefix(self):
        seen = []
        outcome, recovery, _ = self._ladder(
            [TornTransferError(300, 1000)],
            on_torn=lambda delivered: seen.append(delivered) or {})
        assert outcome == "done" and seen == [300]
        assert recovery["resumes"] == 1 and recovery["retries"] == 0

    def test_torn_transfer_without_resume_retries_whole(self):
        outcome, recovery, _ = self._ladder([TornTransferError(300, 1000)])
        assert outcome == "done"
        assert recovery["retries"] == 1 and recovery["resumes"] == 0

    def test_unmapped_segment_remaps(self):
        remaps = []
        outcome, recovery, now = self._ladder(
            [SegmentUnmappedError("revoked")],
            on_unmap=lambda: remaps.append(True))
        assert outcome == "done" and remaps == [True]
        assert recovery["remaps"] == 1 and recovery["retries"] == 0
        assert now == 25.0  # RecoveryPolicy.remap_cost

    def test_unmapped_segment_without_remap_escapes(self):
        revoked = SegmentUnmappedError("revoked")
        outcome, recovery, _ = self._ladder([revoked])
        assert isinstance(outcome, TransferFault) and outcome.unmapped
        assert outcome.__cause__ is revoked and recovery["remaps"] == 0

    def test_gives_up_after_max_retransmits(self):
        budget = RecoveryPolicy().max_retransmits
        lost = [SCITransientError("lost")] * (budget + 1)
        outcome, recovery, _ = self._ladder(lost[:budget])
        assert outcome == "done" and recovery["retries"] == budget
        outcome, recovery, _ = self._ladder(lost)
        assert isinstance(outcome, TransferAborted)
        assert recovery["retries"] == budget and recovery["aborts"] == 1

class TestGroupSums:
    """``MemorySystem.walk_cost``'s one-pass totals equal the three
    separate sums exactly, over few groups and over thousands."""

    @pytest.mark.parametrize("n", [0, 1, 4096])
    def test_equal_to_the_loop(self, n):
        rng = np.random.default_rng(n)
        groups = [(int(length), int(count)) for length, count in zip(
            rng.integers(0, 5000, n), rng.integers(1, 1 << 30, n))]
        memory, cfg = MemorySystem(DEFAULT_NODE.memory), DEFAULT_PROTOCOL
        nbytes = sum(length * count for length, count in groups)
        elements = sum(count * max(1, -(-length // cfg.generic_element_size))
                       for length, count in groups)
        expected = nbytes and (
            memory.params.copy_call_overhead
            + elements * cfg.generic_pack_element_cost
            + sum(count for _, count in groups) * cfg.generic_pack_block_cost
            + nbytes / memory.params.main_copy_bw)
        assert memory.walk_cost(groups, "generic", True, cfg) == expected
