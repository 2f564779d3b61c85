"""Tests for the unified transport layer (repro.mpi.transport).

Covers the policy decision table, the scheduler's per-chunk accounting,
segmented (plan-aware) sends, chunked collectives — all byte-for-byte
against the monolithic paths — and a grep-based guard that chunk-group
computation stays inside the transport / flatten packages.
"""

import pathlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro._units import KiB
from repro.bench.noncontig import measure_point
from repro.cluster import Cluster
from repro.mpi.datatypes import DOUBLE, Indexed, Subarray, Vector
from repro.mpi.flatten import get_plan
from repro.hardware.params import DEFAULT_NODE
from repro.mpi.errors import MPIError
from repro.mpi.pt2pt import DEFAULT_PROTOCOL, NonContigMode
from repro.mpi.pt2pt.costs import (
    _group_sums,
    contiguous_remote_chunk_duration,
    direct_remote_chunk_duration,
)
from repro.mpi.transport import (
    ChunkedCollectivesPolicy,
    OSCStrategy,
    Protocol,
    TransferMode,
    TransferPolicy,
)
from repro.mpi.transport.store import RemoteStore

from .test_flatten_engine import datatype_strategy


def _no_verdict():
    raise AssertionError("the verdict was priced")


class TestTransferPolicy:
    def test_protocol_thresholds(self):
        pol = TransferPolicy(DEFAULT_PROTOCOL)
        cfg = DEFAULT_PROTOCOL
        assert pol.protocol(0) == Protocol.SHORT
        assert pol.protocol(cfg.short_threshold) == Protocol.SHORT
        assert pol.protocol(cfg.short_threshold + 1) == Protocol.EAGER
        assert pol.protocol(cfg.eager_threshold) == Protocol.EAGER
        assert pol.protocol(cfg.eager_threshold + 1) == Protocol.RNDV

    def test_transfer_mode_forced(self):
        contig = DOUBLE.commit()
        strided = Vector(4, 1, 3, DOUBLE).commit()
        for mode, expect in [
            (NonContigMode.GENERIC, TransferMode.GENERIC),
            (NonContigMode.DIRECT, TransferMode.DIRECT),
            (NonContigMode.DMA, TransferMode.DMA),
        ]:
            pol = TransferPolicy(DEFAULT_PROTOCOL.with_mode(mode))
            for protocol in (Protocol.SHORT, Protocol.EAGER, Protocol.RNDV):
                assert pol.transfer_mode(contig, protocol,
                                         _no_verdict) == TransferMode.CONTIGUOUS
                # A forced mode never asks for the verdict.
                assert pol.transfer_mode(strided, protocol, _no_verdict) == expect

    def test_auto_is_the_default_verdict(self):
        assert DEFAULT_PROTOCOL.noncontig_mode == NonContigMode.AUTO
        pol = TransferPolicy()
        strided = Vector(4, 1, 3, DOUBLE).commit()
        assert pol.transfer_mode(DOUBLE.commit(), Protocol.RNDV,
                                 _no_verdict) == TransferMode.CONTIGUOUS
        # Short messages pack inline in every mode: DIRECT, unpriced.
        assert pol.transfer_mode(strided, Protocol.SHORT,
                                 _no_verdict) == TransferMode.DIRECT
        for protocol in (Protocol.EAGER, Protocol.RNDV):
            assert pol.transfer_mode(strided, protocol,
                                     lambda: TransferMode.DMA) == TransferMode.DMA

    def test_osc_strategies(self):
        pol = TransferPolicy(DEFAULT_PROTOCOL)
        thr = DEFAULT_PROTOCOL.remote_put_threshold
        assert pol.put_strategy(True, True) == OSCStrategy.DIRECT
        assert pol.put_strategy(True, False) == OSCStrategy.EMULATED
        assert pol.put_strategy(False, True) == OSCStrategy.EMULATED
        assert pol.get_strategy(thr, True, True) == OSCStrategy.DIRECT
        assert pol.get_strategy(thr + 1, True, True) == OSCStrategy.REMOTE_PUT
        assert pol.get_strategy(64, True, False) == OSCStrategy.REMOTE_PUT
        assert pol.get_strategy(64, False, True) == OSCStrategy.EMULATED

    def test_collective_chunk(self):
        base = TransferPolicy(DEFAULT_PROTOCOL)
        assert base.collective_chunk(1 << 20, 8) is None
        chunked = ChunkedCollectivesPolicy(DEFAULT_PROTOCOL)
        assert chunked.collective_chunk(1 << 20, 8) == 64 * KiB
        # Nothing to pipeline below three ranks or the size threshold.
        assert chunked.collective_chunk(1 << 20, 2) is None
        assert chunked.collective_chunk(32 * KiB, 8) is None

    def test_bind_keeps_subclass(self):
        cfg = DEFAULT_PROTOCOL.replace(eager_threshold=4 * KiB)
        pol = ChunkedCollectivesPolicy(coll_chunk=32 * KiB).bind(cfg)
        assert isinstance(pol, ChunkedCollectivesPolicy)
        assert pol.coll_chunk == 32 * KiB
        assert pol.config.eager_threshold == 4 * KiB


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
        assert tx.verdict(plan, 0, plan.total, 1, True) == sender
        assert rx.verdict(plan, 0, plan.total, 0, False) == receiver

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
                plan, 0, plan.total, peer, sending)
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
        assert _one_way(HALO_X_FACE) <= 1.05 * times[NonContigMode.DMA]

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
        assert _one_way(dtype, count, None, internode) <= 1.05 * best


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


class TestSegmentedSends:
    @pytest.mark.parametrize("seg_size", [100, 4 * KiB, 24 * KiB])
    def test_segments_equal_whole_message(self, seg_size):
        """A message sent as packed-stream segments arrives byte-identical
        to the same message sent whole, for every protocol the segment
        size lands in."""
        total = 48 * KiB
        payload = (np.arange(total, dtype=np.int64) % 251).astype(np.uint8)

        def whole(ctx):
            comm = ctx.comm
            buf = ctx.alloc(total)
            if comm.rank == 0:
                buf.write(payload)
                yield from comm.send(buf, dest=1, tag=1)
            else:
                yield from comm.recv(buf, source=0, tag=1)
                return buf.read().tobytes()

        def segmented(ctx):
            comm = ctx.comm
            buf = ctx.alloc(total)
            if comm.rank == 0:
                buf.write(payload)
            pos = 0
            while pos < total:
                n = min(seg_size, total - pos)
                if comm.rank == 0:
                    yield from comm.send(buf, dest=1, tag=1, segment=(pos, n))
                else:
                    yield from comm.recv(buf, source=0, tag=1, segment=(pos, n))
                pos += n
            if comm.rank == 1:
                return buf.read().tobytes()

        expected = Cluster(n_nodes=2).run(whole).results[1]
        got = Cluster(n_nodes=2).run(segmented).results[1]
        assert got == expected == payload.tobytes()

    @pytest.mark.parametrize("mode", [NonContigMode.GENERIC, NonContigMode.DIRECT])
    def test_segments_noncontiguous(self, mode):
        """Plan-aware segments of a strided datatype land in the right
        strided positions (no staging copy to get wrong)."""
        dtype = Vector(8, 2, 4, DOUBLE).commit()
        count = 64
        extent = dtype.extent * count
        total = dtype.size * count
        seg = 1000  # deliberately unaligned with block boundaries

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(extent)
            if comm.rank == 0:
                buf.write((np.arange(extent, dtype=np.int64) % 241).astype(np.uint8))
                pos = 0
                while pos < total:
                    n = min(seg, total - pos)
                    yield from comm.send(buf, dest=1, tag=1, datatype=dtype,
                                         count=count, segment=(pos, n))
                    pos += n
                return buf.read().tobytes()
            pos = 0
            while pos < total:
                n = min(seg, total - pos)
                yield from comm.recv(buf, source=0, tag=1, datatype=dtype,
                                     count=count, segment=(pos, n))
                pos += n
            return buf.read().tobytes()

        protocol = DEFAULT_PROTOCOL.with_mode(mode)
        run = Cluster(n_nodes=2, protocol=protocol).run(program)
        sent = np.frombuffer(run.results[0], dtype=np.uint8)
        recvd = np.frombuffer(run.results[1], dtype=np.uint8)
        # Only the datatype's data bytes were transferred.
        plan = get_plan(dtype.flattened, count)
        np.testing.assert_array_equal(
            plan.execute_pack(recvd, 0), plan.execute_pack(sent, 0)
        )

    def test_segment_out_of_range_rejected(self):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(1 * KiB)
            if comm.rank == 0:
                with pytest.raises(MPIError):
                    yield from comm.send(buf, dest=1, tag=1,
                                         segment=(512, 1024))
            return True

        assert Cluster(n_nodes=2).run(program).results[0]


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
    def test_chunked_bcast_bytes_equal_monolithic(self):
        nbytes = 300 * KiB
        mono = _run_bcast(None, nbytes)
        chunk = _run_bcast(ChunkedCollectivesPolicy(), nbytes)
        assert mono.results == chunk.results
        assert len(set(chunk.results)) == 1

    def test_chunked_bcast_noncontiguous(self):
        dtype = Vector(16, 4, 8, DOUBLE).commit()
        count = 80
        extent, total = dtype.extent * count, dtype.size * count
        mono = _run_bcast(None, total, datatype=dtype, count=count,
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
        mono = _run_bcast(None, nbytes)
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
                expected = contiguous_remote_chunk_duration(
                    params, offset, nbytes, src_cached)
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
        access, window = 1 * KiB, 128 * KiB

        def program(ctx):
            win = yield from ctx.comm.win_create(window, shared=False)
            data = np.zeros(access, dtype=np.uint8)
            yield from win.fence()
            for offset in range(0, window, 2 * access):
                yield from win.put(data, 1 - ctx.comm.rank, offset)
            yield from win.fence()

        cluster = Cluster(n_nodes=2)
        cluster.run(program)
        counts = cluster.metrics.snapshot()
        hits = counts["engine.fastpath_table_hits"]
        misses = counts["engine.fastpath_table_misses"]
        assert hits + misses == 2 * (window // (2 * access))
        assert hits / (hits + misses) > 0.9


class TestGroupSums:
    """The cost models' one-pass totals equal the three separate sums
    exactly, over few groups and over thousands."""

    @pytest.mark.parametrize("n", [0, 1, 4096])
    def test_equal_to_the_loop(self, n):
        rng = np.random.default_rng(n)
        groups = [(int(length), int(count)) for length, count in zip(
            rng.integers(0, 5000, n), rng.integers(1, 1 << 30, n))]
        assert _group_sums(groups, 8) == (
            sum(length * count for length, count in groups),
            sum(count for _, count in groups),
            sum(count * max(1, -(-length // 8)) for length, count in groups),
        )
        assert _group_sums(groups)[2] == 0
