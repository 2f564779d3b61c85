"""Integration tests: point-to-point protocols on the simulated cluster."""

import numpy as np
import pytest

from repro._units import KiB, MiB
from repro.cluster import Cluster
from repro.mpi import ANY_SOURCE, ANY_TAG, MessageTruncated, MPIError
from repro.mpi.datatypes import BYTE, DOUBLE, INT, Hvector, Resized, Struct, Vector
from repro.mpi.pt2pt import NonContigMode, ProtocolConfig


def two_rank_cluster(**kw):
    return Cluster(n_nodes=2, **kw)


def run_pingpong(cluster, nbytes, tag=5):
    """rank0 sends nbytes, rank1 receives and echoes back; returns timings."""

    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        if comm.rank == 0:
            buf.read()[:] = np.arange(nbytes, dtype=np.uint8) % 251
            t0 = ctx.now
            yield from comm.send(buf, dest=1, tag=tag)
            yield from comm.recv(buf, source=1, tag=tag)
            return ("roundtrip", ctx.now - t0, buf.tobytes())
        status = yield from comm.recv(buf, source=0, tag=tag)
        yield from comm.send(buf, dest=0, tag=tag)
        return ("echoed", status.nbytes, buf.tobytes())

    return cluster.run(program)


class TestProtocolSelection:
    @pytest.mark.parametrize(
        "nbytes,proto",
        [(64, "short"), (4 * KiB, "eager"), (256 * KiB, "rndv")],
    )
    def test_size_selects_protocol(self, nbytes, proto):
        cluster = two_rank_cluster()
        run = run_pingpong(cluster, nbytes)
        dev = cluster.world.device(0)
        assert dev.counters[proto] == 1
        expected = (np.arange(nbytes, dtype=np.uint8) % 251).tobytes()
        assert run.results[0][2] == expected
        assert run.results[1][1] == nbytes


class TestDataIntegrity:
    @pytest.mark.parametrize("nbytes", [1, 127, 128, 129, 8 * KiB,
                                        16 * KiB, 16 * KiB + 1, 200 * KiB])
    def test_pingpong_roundtrip_boundaries(self, nbytes):
        """Exercise every protocol boundary byte-exactly."""
        run = run_pingpong(two_rank_cluster(), nbytes)
        expected = (np.arange(nbytes, dtype=np.uint8) % 251).tobytes()
        assert run.results[0][2] == expected

    def test_intranode_roundtrip(self):
        cluster = Cluster(n_nodes=1, procs_per_node=2)
        run = run_pingpong(cluster, 100 * KiB)
        expected = (np.arange(100 * KiB, dtype=np.uint8) % 251).tobytes()
        assert run.results[0][2] == expected

    def test_multiple_messages_in_order(self):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(8)
            got = []
            if comm.rank == 0:
                for i in range(10):
                    buf.as_array(np.int64)[0] = i * 11
                    yield from comm.send(buf, dest=1, tag=3)
            else:
                for _ in range(10):
                    yield from comm.recv(buf, source=0, tag=3)
                    got.append(int(buf.as_array(np.int64)[0]))
            return got

        run = Cluster(n_nodes=2).run(program)
        assert run.results[1] == [i * 11 for i in range(10)]

    def test_wildcard_recv(self):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(16)
            if comm.rank == 0:
                sources = []
                for _ in range(2):
                    status = yield from comm.recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
                    sources.append(status.source)
                return sorted(sources)
            yield ctx.cluster.engine.timeout(float(comm.rank))
            buf.fill(comm.rank)
            yield from comm.send(buf, dest=0, tag=comm.rank)
            return None

        run = Cluster(n_nodes=3).run(program)
        assert run.results[0] == [1, 2]

    def test_unexpected_message_is_buffered(self):
        """Send arrives before the recv is posted."""

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(64)
            if comm.rank == 0:
                buf.fill(0xCD)
                yield from comm.send(buf, dest=1, tag=9)
                return None
            yield ctx.cluster.engine.timeout(500.0)  # post the recv late
            yield from comm.recv(buf, source=0, tag=9)
            return buf.tobytes()

        run = Cluster(n_nodes=2).run(program)
        assert run.results[1] == bytes([0xCD]) * 64

    def test_truncation_error(self):
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                big = ctx.alloc(256)
                yield from comm.send(big, dest=1, tag=1)
            else:
                small = ctx.alloc(16)
                yield from comm.recv(small, source=0, tag=1)

        with pytest.raises(MessageTruncated):
            Cluster(n_nodes=2).run(program)


class TestBufferExtent:
    """``count`` instances of the datatype must fit the buffer: the check
    is made once per message, before any byte moves."""

    @staticmethod
    def _exchange(datatype, count, nbytes, offset=0):
        """Rank 0 sends, rank 1 receives ``count`` x ``datatype`` in an
        ``nbytes`` buffer cut ``offset`` bytes into an allocation, with a
        guard allocation behind it; returns rank 1's (guard, buffer)."""

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(offset + nbytes).slice(offset, nbytes)
            guard = ctx.alloc(256)
            guard.fill(0xEE)
            if comm.rank == 0:
                buf.fill(0x11)
                yield from comm.send(buf, dest=1, datatype=datatype, count=count)
                return None
            yield from comm.recv(buf, source=0, datatype=datatype, count=count)
            return guard.tobytes(), buf.tobytes()

        return Cluster(n_nodes=2).run(program).results[1]

    def test_overrun_rejected(self):
        vec = Vector(4, 1, 2, DOUBLE).commit()  # touches [0, 56), extent 56
        with pytest.raises(MPIError, match=r"\[0, 168\) of a 120 B buffer"):
            self._exchange(vec, 3, 120)

    def test_negative_lb_underrun_rejected(self):
        back = Hvector(3, 1, -16, DOUBLE).commit()  # touches [-32, 8)
        assert back.lb == -32
        with pytest.raises(MPIError, match=r"\[-32, 8\)"):
            self._exchange(back, 1, 64, offset=64)

    def test_exact_fit_with_trailing_gap_accepted(self):
        """The last instance need not bring its trailing gap along: three
        instances of extent 64 that each touch 56 bytes fit 184 bytes."""
        padded = Resized(Vector(4, 1, 2, DOUBLE), 0, 64).commit()
        guard, data = self._exchange(padded, 3, 2 * 64 + 56)
        assert guard == bytes([0xEE]) * 256
        assert data[-8:] == bytes([0x11]) * 8
        with pytest.raises(MPIError):
            self._exchange(padded, 3, 2 * 64 + 55)


class TestNoncontiguous:
    def make_vector(self, blocks=64, blocklen_doubles=2):
        return Vector(blocks, blocklen_doubles, 2 * blocklen_doubles, DOUBLE)

    @pytest.mark.parametrize("mode", [NonContigMode.GENERIC, NonContigMode.DIRECT])
    def test_vector_roundtrip(self, mode):
        vec = self.make_vector().commit()
        span = vec.extent

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(span)
            view = buf.as_array(np.float64)
            if comm.rank == 0:
                view[:] = np.arange(len(view), dtype=np.float64)
                yield from comm.send(buf, dest=1, tag=2, datatype=vec, count=1)
                return None
            view[:] = -1.0
            yield from comm.recv(buf, source=0, tag=2, datatype=vec, count=1)
            return np.array(view, copy=True)

        cluster = Cluster(n_nodes=2, protocol=ProtocolConfig(noncontig_mode=mode))
        run = cluster.run(program)
        got = run.results[1]
        # Sender's data blocks land in the receiver's data blocks; gaps stay -1.
        for i in range(0, len(got), 4):
            assert got[i] == i and got[i + 1] == i + 1
            if i + 2 < len(got) - 1:
                assert got[i + 2] == -1.0 and got[i + 3] == -1.0

    @pytest.mark.parametrize("mode", [NonContigMode.GENERIC, NonContigMode.DIRECT])
    @pytest.mark.parametrize("total_kib", [4, 64, 512])
    def test_large_vector_roundtrip_both_modes(self, mode, total_kib):
        """Rendezvous-sized strided sends arrive byte-exactly in both modes."""
        nblocks = total_kib * KiB // 8
        vec = Vector(nblocks, 1, 2, DOUBLE).commit()

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(vec.extent)
            view = buf.as_array(np.float64)
            if comm.rank == 0:
                view[::2] = np.arange(nblocks, dtype=np.float64)
                yield from comm.send(buf, dest=1, tag=4, datatype=vec, count=1)
                return None
            yield from comm.recv(buf, source=0, tag=4, datatype=vec, count=1)
            return np.array(view[::2], copy=True)

        cluster = Cluster(n_nodes=2, protocol=ProtocolConfig(noncontig_mode=mode))
        run = cluster.run(program)
        assert np.array_equal(run.results[1], np.arange(nblocks, dtype=np.float64))

    def test_sender_vector_receiver_contiguous(self):
        """Mixed layouts: strided send into a contiguous receive."""
        vec = Vector(32, 1, 2, DOUBLE).commit()

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                buf = ctx.alloc(vec.extent)
                view = buf.as_array(np.float64)
                view[::2] = np.arange(32, dtype=np.float64)
                yield from comm.send(buf, dest=1, tag=6, datatype=vec, count=1)
                return None
            flat = ctx.alloc(32 * 8)
            yield from comm.recv(flat, source=0, tag=6, datatype=BYTE, count=32 * 8)
            return np.array(flat.as_array(np.float64), copy=True)

        run = Cluster(n_nodes=2).run(program)
        assert np.array_equal(run.results[1], np.arange(32, dtype=np.float64))

    def test_struct_of_mixed_blocks(self):
        st = Struct([1, 1], [0, 16], [INT, DOUBLE]).commit()

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(st.extent * 4)
            if comm.rank == 0:
                for i in range(4):
                    buf.slice(i * st.extent, 4).as_array(np.int32)[0] = i
                    buf.slice(i * st.extent + 16, 8).as_array(np.float64)[0] = i * 0.5
                yield from comm.send(buf, dest=1, tag=8, datatype=st, count=4)
                return None
            yield from comm.recv(buf, source=0, tag=8, datatype=st, count=4)
            ints = [int(buf.slice(i * st.extent, 4).as_array(np.int32)[0]) for i in range(4)]
            dbls = [float(buf.slice(i * st.extent + 16, 8).as_array(np.float64)[0]) for i in range(4)]
            return ints, dbls

        run = Cluster(n_nodes=2).run(program)
        assert run.results[1] == ([0, 1, 2, 3], [0.0, 0.5, 1.0, 1.5])


class TestNonblocking:
    def test_isend_irecv_wait(self):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(32 * KiB)
            if comm.rank == 0:
                buf.fill(0x5A)
                req = comm.isend(buf, dest=1, tag=11)
                yield from req.wait()
                return None
            req = comm.irecv(buf, source=0, tag=11)
            status = yield from req.wait()
            return (status.nbytes, buf.read(0, 4).tobytes())

        run = Cluster(n_nodes=2).run(program)
        assert run.results[1] == (32 * KiB, b"\x5a\x5a\x5a\x5a")

    def test_sendrecv_exchange(self):
        def program(ctx):
            comm = ctx.comm
            sendbuf = ctx.alloc(1 * KiB)
            recvbuf = ctx.alloc(1 * KiB)
            sendbuf.fill(comm.rank + 1)
            peer = 1 - comm.rank
            yield from comm.sendrecv(sendbuf, peer, recvbuf, peer)
            return recvbuf.read(0, 1)[0]

        run = Cluster(n_nodes=2).run(program)
        assert run.results == [2, 1]


class TestCollectives:
    def test_barrier_synchronizes(self):
        def program(ctx):
            comm = ctx.comm
            yield ctx.cluster.engine.timeout(float(comm.rank * 100))
            yield from comm.barrier()
            return ctx.now

        run = Cluster(n_nodes=4).run(program)
        # Nobody leaves the barrier before the slowest arrival (t=300).
        assert min(run.results) >= 300.0

    def test_bcast_all_roots(self):
        for root in range(4):
            def program(ctx, root=root):
                comm = ctx.comm
                buf = ctx.alloc(2 * KiB)
                if comm.rank == root:
                    buf.fill(0xEE)
                yield from comm.bcast(buf, root=root)
                return buf.read(0, 8).tobytes()

            run = Cluster(n_nodes=4).run(program)
            assert all(r == bytes([0xEE] * 8) for r in run.results)

    def test_allreduce_sum(self):
        def program(ctx):
            comm = ctx.comm
            send = ctx.alloc(8 * 8)
            recv = ctx.alloc(8 * 8)
            send.as_array(np.float64)[:] = comm.rank + 1
            yield from comm.allreduce(send, recv, op="sum")
            return list(recv.as_array(np.float64))

        run = Cluster(n_nodes=4).run(program)
        for values in run.results:
            assert values == [10.0] * 8  # 1+2+3+4

    def test_gather_and_allgather(self):
        def program(ctx):
            comm = ctx.comm
            send = ctx.alloc(16)
            send.fill(comm.rank + 1)
            recv = ctx.alloc(16 * comm.size)
            yield from comm.allgather(send, recv)
            return [recv.read(i * 16, 1)[0] for i in range(comm.size)]

        run = Cluster(n_nodes=4).run(program)
        assert all(r == [1, 2, 3, 4] for r in run.results)


class TestTimingShapes:
    def test_latency_small_message_is_microseconds(self):
        run = run_pingpong(two_rank_cluster(), 8)
        roundtrip = run.results[0][1]
        assert 2.0 < roundtrip < 40.0  # µs-scale MPI latency

    def test_bandwidth_large_contiguous(self):
        from repro._units import to_mib_s

        nbytes = 1 * MiB

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(nbytes)
            if comm.rank == 0:
                t0 = ctx.now
                yield from comm.send(buf, dest=1, tag=0)
                return ctx.now - t0
            yield from comm.recv(buf, source=0, tag=0)
            return None

        run = Cluster(n_nodes=2).run(program)
        bw = to_mib_s(nbytes / run.results[0])
        assert 60 <= bw <= 140  # MPI-level contiguous, around ~95 MiB/s

    def test_intranode_faster_than_internode(self):
        inter = run_pingpong(Cluster(n_nodes=2), 256 * KiB).results[0][1]
        intra = run_pingpong(Cluster(n_nodes=1, procs_per_node=2), 256 * KiB).results[0][1]
        assert intra < inter

    def test_direct_beats_generic_for_midsize_blocks(self):
        """The paper's headline: direct_pack_ff ~2x generic at >=16 B blocks."""
        nblocks = 16 * KiB // 8  # 128 kiB of data in 64-byte blocks
        vec = Vector(2048, 8, 16, DOUBLE).commit()  # 64 B blocks, gap 64 B

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(vec.extent)
            if comm.rank == 0:
                t0 = ctx.now
                yield from comm.send(buf, dest=1, tag=0, datatype=vec, count=1)
                return ctx.now - t0
            yield from comm.recv(buf, source=0, tag=0, datatype=vec, count=1)
            return None

        t_direct = Cluster(
            n_nodes=2, protocol=ProtocolConfig(noncontig_mode=NonContigMode.DIRECT)
        ).run(program).results[0]
        t_generic = Cluster(
            n_nodes=2, protocol=ProtocolConfig(noncontig_mode=NonContigMode.GENERIC)
        ).run(program).results[0]
        assert t_generic > 1.5 * t_direct
