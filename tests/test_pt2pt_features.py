"""Tests for the extended point-to-point features: ssend, probe, persistent
requests, communicator split/dup, DMA mode, pack/unpack API."""

import numpy as np
import pytest

from repro._units import KiB
from repro.cluster import Cluster
from repro.mpi import ANY_SOURCE, ANY_TAG
from repro.mpi.datatypes import DOUBLE, INT, Hvector, Vector
from repro.mpi.errors import MPIError
from repro.mpi.flatten import PackError
from repro.mpi.pt2pt import NonContigMode, ProtocolConfig


class TestSsend:
    @pytest.mark.parametrize("nbytes", [32, 4 * KiB])
    def test_ssend_completes_only_after_match(self, nbytes):
        """Synchronous send must not complete before the recv is posted."""

        def program(ctx, nbytes=nbytes):
            comm = ctx.comm
            buf = ctx.alloc(nbytes)
            if comm.rank == 0:
                buf.fill(1)
                yield from comm.ssend(buf, dest=1, tag=4)
                return ctx.now
            yield ctx.cluster.engine.timeout(500.0)
            yield from comm.recv(buf, source=0, tag=4)
            return ctx.now

        run = Cluster(n_nodes=2).run(program)
        sender_done, recv_done = run.results
        assert sender_done >= 500.0  # waited for the late receiver

    def test_standard_send_completes_early(self):
        """Contrast: an eager-sized standard send completes locally."""

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(4 * KiB)
            if comm.rank == 0:
                yield from comm.send(buf, dest=1, tag=4)
                return ctx.now
            yield ctx.cluster.engine.timeout(500.0)
            yield from comm.recv(buf, source=0, tag=4)
            return ctx.now

        run = Cluster(n_nodes=2).run(program)
        assert run.results[0] < 500.0

    def test_ssend_data_integrity(self):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(1 * KiB)
            if comm.rank == 0:
                buf.read()[:] = np.arange(1024, dtype=np.uint8) % 97
                yield from comm.ssend(buf, dest=1, tag=0)
                return None
            yield from comm.recv(buf, source=0, tag=0)
            return buf.tobytes()

        run = Cluster(n_nodes=2).run(program)
        assert run.results[1] == (np.arange(1024, dtype=np.uint8) % 97).tobytes()


class TestProbe:
    def test_blocking_probe_reports_without_consuming(self):
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                buf = ctx.alloc(300)
                buf.fill(9)
                yield from comm.send(buf, dest=1, tag=13)
                return None
            status = yield from comm.probe(source=ANY_SOURCE, tag=ANY_TAG)
            # The message is still receivable afterwards.
            buf = ctx.alloc(status.nbytes)
            recv_status = yield from comm.recv(buf, source=status.source,
                                               tag=status.tag)
            return (status.source, status.nbytes, recv_status.nbytes,
                    buf.read(0, 1)[0])

        run = Cluster(n_nodes=2).run(program)
        assert run.results[1] == (0, 300, 300, 9)

    def test_probe_blocks_until_message(self):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(64)
            if comm.rank == 0:
                yield ctx.cluster.engine.timeout(200.0)
                yield from comm.send(buf, dest=1, tag=1)
                return None
            status = yield from comm.probe(source=0, tag=1)
            arrival = ctx.now
            yield from comm.recv(buf, source=0, tag=1)
            return (arrival, status.nbytes)

        run = Cluster(n_nodes=2).run(program)
        arrival, nbytes = run.results[1]
        assert arrival >= 200.0 and nbytes == 64

    def test_iprobe_nonblocking(self):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(64)
            if comm.rank == 0:
                miss = comm.iprobe(source=1)
                yield from comm.recv(buf, source=1, tag=7)
                return miss
            yield from comm.send(buf, dest=0, tag=7)
            return None

        run = Cluster(n_nodes=2).run(program)
        assert run.results[0] is None  # nothing had arrived at t=0

    def test_rendezvous_probe_reports_full_size(self):
        def program(ctx):
            comm = ctx.comm
            big = ctx.alloc(128 * KiB)
            if comm.rank == 0:
                yield from comm.send(big, dest=1, tag=2)
                return None
            status = yield from comm.probe(source=0, tag=2)
            yield from comm.recv(big, source=0, tag=2)
            return status.nbytes

        run = Cluster(n_nodes=2).run(program)
        assert run.results[1] == 128 * KiB


class TestPersistentRequests:
    def test_persistent_send_recv_rounds(self):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(8)
            view = buf.as_array(np.int64)
            results = []
            if comm.rank == 0:
                preq = comm.send_init(buf, dest=1, tag=3)
                for i in range(4):
                    view[0] = i * 7
                    preq.start()
                    yield from preq.wait()
                return None
            preq = comm.recv_init(buf, source=0, tag=3)
            for _ in range(4):
                preq.start()
                yield from preq.wait()
                results.append(int(view[0]))
            return results

        run = Cluster(n_nodes=2).run(program)
        assert run.results[1] == [0, 7, 14, 21]

    def test_double_start_rejected(self):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(8)
            if comm.rank == 0:
                preq = comm.send_init(buf, dest=1, tag=1)
                preq.start()
                try:
                    preq.start()
                except RuntimeError:
                    result = "rejected"
                else:
                    result = "allowed"
                yield from preq.wait()
                return result
            yield from comm.recv(buf, source=0, tag=1)
            return None

        run = Cluster(n_nodes=2).run(program)
        assert run.results[0] == "rejected"


class TestCommSplit:
    def test_split_into_halves(self):
        def program(ctx):
            comm = ctx.comm
            color = comm.rank % 2
            sub = yield from comm.split(color, key=comm.rank)
            # Ring exchange within the sub-communicator.
            buf = ctx.alloc(8)
            buf.as_array(np.int64)[0] = comm.rank
            out = ctx.alloc(8)
            peer = (sub.rank + 1) % sub.size
            src = (sub.rank - 1) % sub.size
            yield from sub.sendrecv(buf, peer, out, src)
            return (sub.rank, sub.size, int(out.as_array(np.int64)[0]))

        run = Cluster(n_nodes=4).run(program)
        # world ranks 0,2 -> color 0; 1,3 -> color 1.
        assert run.results[0] == (0, 2, 2)   # got world rank 2's value
        assert run.results[2] == (1, 2, 0)
        assert run.results[1] == (0, 2, 3)
        assert run.results[3] == (1, 2, 1)

    def test_context_isolation(self):
        """Same tag on parent and sub-communicator must not cross-match."""

        def program(ctx):
            comm = ctx.comm
            sub = yield from comm.split(0, key=comm.rank)  # everyone together
            buf_a = ctx.alloc(8)
            buf_b = ctx.alloc(8)
            if comm.rank == 0:
                buf_a.as_array(np.int64)[0] = 111
                buf_b.as_array(np.int64)[0] = 222
                # Same destination and same tag on both communicators.
                yield from comm.send(buf_a, dest=1, tag=5)
                yield from sub.send(buf_b, dest=1, tag=5)
                return None
            # Receive in the opposite order: context must disambiguate.
            status_sub = yield from sub.recv(buf_b, source=0, tag=5)
            status_parent = yield from comm.recv(buf_a, source=0, tag=5)
            return (int(buf_b.as_array(np.int64)[0]),
                    int(buf_a.as_array(np.int64)[0]))

        run = Cluster(n_nodes=2).run(program)
        assert run.results[1] == (222, 111)

    def test_split_collectives_in_subgroups(self):
        def program(ctx):
            comm = ctx.comm
            sub = yield from comm.split(comm.rank // 2)
            send = ctx.alloc(8)
            recv = ctx.alloc(8)
            send.as_array(np.float64)[0] = comm.rank + 1
            yield from sub.allreduce(send, recv, op="sum")
            return float(recv.as_array(np.float64)[0])

        run = Cluster(n_nodes=4).run(program)
        assert run.results == [3.0, 3.0, 7.0, 7.0]  # (1+2), (3+4)

    def test_split_undefined_color(self):
        def program(ctx):
            comm = ctx.comm
            color = 0 if comm.rank < 2 else None
            sub = yield from comm.split(color)
            if sub is None:
                return "excluded"
            return ("in", sub.size)

        run = Cluster(n_nodes=3).run(program)
        assert run.results == [("in", 2), ("in", 2), "excluded"]

    def test_dup_isolates_but_keeps_group(self):
        def program(ctx):
            comm = ctx.comm
            dup = yield from comm.dup()
            assert dup.size == comm.size and dup.rank == comm.rank
            assert dup.context != comm.context
            yield from dup.barrier()
            return dup.context

        run = Cluster(n_nodes=3).run(program)
        assert len(set(run.results)) == 1  # same context on every rank

    def test_osc_on_subcommunicator(self):
        def program(ctx):
            comm = ctx.comm
            sub = yield from comm.split(comm.rank % 2, key=comm.rank)
            win = yield from sub.win_create(256, shared=True)
            yield from win.fence()
            if sub.rank == 0:
                yield from win.put(np.full(8, 10 + comm.rank, dtype=np.uint8),
                                   target=1, target_disp=0)
            yield from win.fence()
            if sub.rank == 1:
                return int(win.local_view()[0])
            return None

        run = Cluster(n_nodes=4).run(program)
        # sub {0,2}: rank0=world0 puts 10 into world2; sub {1,3}: 11 into 3.
        assert run.results[2] == 10
        assert run.results[3] == 11


class TestDMAMode:
    def test_dma_mode_roundtrip(self):
        vec = Vector(4096, 4, 8, DOUBLE).commit()  # 32 B blocks, 128 kiB data

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(vec.extent)
            view = buf.as_array(np.float64)
            if comm.rank == 0:
                view[: 8] = np.arange(8)
                yield from comm.send(buf, dest=1, tag=0, datatype=vec, count=1)
                return None
            yield from comm.recv(buf, source=0, tag=0, datatype=vec, count=1)
            return list(view[:4])

        cluster = Cluster(
            n_nodes=2, protocol=ProtocolConfig(noncontig_mode=NonContigMode.DMA)
        )
        run = cluster.run(program)
        assert run.results[1] == [0.0, 1.0, 2.0, 3.0]
        # The rendezvous chunks went through the DMA engine.
        assert cluster.fabric.counters["dma_transfers"] > 0

    def test_dma_small_messages_fall_back_to_pio(self):
        vec = Vector(16, 1, 2, DOUBLE).commit()  # 128 B -> eager

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(vec.extent)
            if comm.rank == 0:
                yield from comm.send(buf, dest=1, tag=0, datatype=vec, count=1)
            else:
                yield from comm.recv(buf, source=0, tag=0, datatype=vec, count=1)

        cluster = Cluster(
            n_nodes=2, protocol=ProtocolConfig(noncontig_mode=NonContigMode.DMA)
        )
        cluster.run(program)
        assert cluster.fabric.counters["dma_transfers"] == 0

    def test_dma_frees_cpu_but_adds_setup(self):
        """DMA rendezvous: slower than direct PIO for this mid-size strided
        message (setup + extra copies), matching the Fig. 1 trade-off."""
        vec = Vector(8192, 4, 8, DOUBLE).commit()  # 256 kiB in 32 B blocks

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(vec.extent)
            if comm.rank == 0:
                yield from comm.send(buf, dest=1, tag=0, datatype=vec, count=1)
                return None
            t0 = ctx.now
            yield from comm.recv(buf, source=0, tag=0, datatype=vec, count=1)
            return ctx.now - t0

        def timed(mode):
            cluster = Cluster(
                n_nodes=2, protocol=ProtocolConfig(noncontig_mode=mode)
            )
            return cluster.run(program).results[1]

        t_direct = timed(NonContigMode.DIRECT)
        t_dma = timed(NonContigMode.DMA)
        assert t_dma > t_direct


class TestPackAPI:
    def test_pack_unpack_roundtrip(self):
        from repro.memlib import AddressSpace

        vec = Vector(8, 2, 4, INT).commit()
        space = AddressSpace(4096)
        src = space.alloc(vec.extent)
        dst = space.alloc(vec.extent)
        src.read()[:] = np.arange(vec.extent, dtype=np.uint8)
        packed = vec.pack_from(src)
        assert packed.nbytes == vec.pack_size() == vec.size
        vec.unpack_into(dst, packed)
        assert np.array_equal(vec.pack_from(dst), packed)

    def test_pack_size_with_count(self):
        vec = Vector(4, 1, 2, DOUBLE)
        assert vec.pack_size(3) == 3 * 32


class TestPackAPIBounds:
    """``pack_from``/``unpack_into`` touch only their buffer: the layout's
    byte interval is checked against ``[0, buf.nbytes)`` by the rule the
    pt2pt prologue uses.  A guard allocation right behind the buffer must
    survive every rejected call."""

    @staticmethod
    def _buffers(nbytes, offset=0):
        from repro.memlib import AddressSpace

        space = AddressSpace(4096)
        buf = space.alloc(offset + nbytes).slice(offset, nbytes)
        guard = space.alloc(64)
        guard.fill(0xEE)
        return buf, guard

    def test_overrun_rejected(self):
        vec = Vector(4, 1, 2, DOUBLE).commit()  # touches [0, 56), extent 56
        buf, guard = self._buffers(56)
        data = np.arange(3 * vec.size, dtype=np.uint8)
        with pytest.raises(MPIError, match=r"\[0, 168\) of a 56 B buffer"):
            vec.unpack_into(buf, data, count=3)
        with pytest.raises(MPIError, match=r"\[0, 168\) of a 56 B buffer"):
            vec.pack_from(buf, count=3)
        assert guard.tobytes() == b"\xee" * 64

    def test_negative_lower_bound_rejected(self):
        back = Hvector(3, 1, -16, DOUBLE).commit()  # touches [-32, 8)
        buf, guard = self._buffers(8, offset=32)
        with pytest.raises(MPIError, match=r"\[-32, 8\) of a 8 B buffer"):
            back.unpack_into(buf, np.zeros(back.size, dtype=np.uint8))
        with pytest.raises(MPIError, match=r"\[-32, 8\)"):
            back.pack_from(buf)
        assert guard.tobytes() == b"\xee" * 64

    def test_exact_fit_accepted(self):
        """Three instances touch [0, 168): the last one's trailing gap
        need not fit, and nothing outside the buffer is written."""
        vec = Vector(4, 1, 2, DOUBLE).commit()
        buf, guard = self._buffers(168)
        data = np.arange(3 * vec.size, dtype=np.uint8)
        vec.unpack_into(buf, data, count=3)
        assert np.array_equal(vec.pack_from(buf, count=3), data)
        # Doubles 0, 2, 4, 6 of each 7-double instance.
        idx = (np.arange(3)[:, None] * 7 + np.arange(0, 8, 2)).reshape(-1)
        doubles = buf.read().view(np.uint64)
        assert np.array_equal(doubles[idx].view(np.uint8), data)
        assert guard.tobytes() == b"\xee" * 64

    def test_payload_size_mismatch_raises(self):
        vec = Vector(4, 1, 2, DOUBLE).commit()
        buf, _ = self._buffers(56)
        for nbytes in (vec.size - 1, vec.size + 1):
            with pytest.raises(PackError, match=r"expected 32 B"):
                vec.unpack_into(buf, np.zeros(nbytes, dtype=np.uint8))
