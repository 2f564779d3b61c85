"""Tests for protocol internals: credits, rendezvous serialization, stress."""

import numpy as np

from repro._units import KiB
from repro.cluster import Cluster
from repro.mpi.pt2pt import ProtocolConfig


class TestEagerCredits:
    def test_third_outstanding_eager_send_blocks(self):
        """Two eager slots per pair: the third isend can't transfer until
        the receiver drains one."""
        protocol = ProtocolConfig(eager_slots=2)
        cluster = Cluster(n_nodes=2, protocol=protocol)
        timeline = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                bufs = [ctx.alloc(8 * KiB) for _ in range(3)]
                reqs = []
                for i, buf in enumerate(bufs):
                    buf.fill(i + 1)
                    reqs.append(comm.isend(buf, dest=1, tag=i))
                # Wait for all three to complete locally.
                for i, req in enumerate(reqs):
                    yield from req.wait()
                    timeline[f"send{i}"] = ctx.now
                return None
            yield ctx.cluster.engine.timeout(1000.0)
            got = []
            for i in range(3):
                buf = ctx.alloc(8 * KiB)
                yield from comm.recv(buf, source=0, tag=i)
                got.append(buf.read(0, 1)[0])
            return got

        run = cluster.run(program)
        assert run.results[1] == [1, 2, 3]
        # Sends 0 and 1 complete early (credits available); send 2 had to
        # wait for the receiver to return a credit after t=1000.
        assert timeline["send0"] < 1000.0
        assert timeline["send1"] < 1000.0
        assert timeline["send2"] > 1000.0

    def test_credits_recycle_over_many_messages(self):
        protocol = ProtocolConfig(eager_slots=2)
        cluster = Cluster(n_nodes=2, protocol=protocol)

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(4 * KiB)
            if comm.rank == 0:
                for i in range(20):
                    buf.fill(i % 251)
                    yield from comm.send(buf, dest=1, tag=0)
                return None
            values = []
            for _ in range(20):
                yield from comm.recv(buf, source=0, tag=0)
                values.append(buf.read(0, 1)[0])
            return values

        run = cluster.run(program)
        assert run.results[1] == [i % 251 for i in range(20)]


class TestRendezvousSerialization:
    def test_two_senders_one_receiver_share_rndv_buffer(self):
        """The single rendezvous region serializes concurrent large
        receives but both complete correctly."""

        def program(ctx):
            comm = ctx.comm
            n = 64 * KiB
            if comm.rank in (0, 1):
                buf = ctx.alloc(n)
                buf.fill(comm.rank + 10)
                yield from comm.send(buf, dest=2, tag=comm.rank)
                return None
            values = []
            for tag in (1, 0):  # receive in reverse send order
                buf = ctx.alloc(n)
                yield from comm.recv(buf, source=tag, tag=tag)
                values.append((buf.read(0, 1)[0], buf.read(n - 1, 1)[0]))
            return values

        run = Cluster(n_nodes=3).run(program)
        assert run.results[2] == [(11, 11), (10, 10)]

    def test_interleaved_rndv_and_eager(self):
        """A small message overtakes a large one on a different tag (no
        false serialization between protocols)."""
        arrival = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                big = ctx.alloc(512 * KiB)
                small = ctx.alloc(64)
                req = comm.isend(big, dest=1, tag=1)
                yield from comm.send(small, dest=1, tag=2)
                yield from req.wait()
                return None
            small = ctx.alloc(64)
            yield from comm.recv(small, source=0, tag=2)
            arrival["small"] = ctx.now
            big = ctx.alloc(512 * KiB)
            yield from comm.recv(big, source=0, tag=1)
            arrival["big"] = ctx.now
            return None

        Cluster(n_nodes=2).run(program)
        assert arrival["small"] < arrival["big"]


class TestManyRanks:
    def test_eight_node_allgather(self):
        def program(ctx):
            comm = ctx.comm
            send = ctx.alloc(1 * KiB)
            recv = ctx.alloc(1 * KiB * comm.size)
            send.fill(comm.rank + 1)
            yield from comm.allgather(send, recv)
            return [recv.read(i * KiB, 1)[0] for i in range(comm.size)]

        run = Cluster(n_nodes=8).run(program)
        assert all(r == list(range(1, 9)) for r in run.results)

    def test_all_pairs_exchange(self):
        """Every rank exchanges with every other rank concurrently."""

        def program(ctx):
            comm = ctx.comm
            reqs = []
            inboxes = {}
            for peer in range(comm.size):
                if peer == comm.rank:
                    continue
                out = ctx.alloc(256)
                out.fill(comm.rank * 16 + peer)
                reqs.append(comm.isend(out, peer, tag=comm.rank))
                inboxes[peer] = ctx.alloc(256)
                reqs.append(comm.irecv(inboxes[peer], source=peer, tag=peer))
            for req in reqs:
                yield from req.wait()
            return {peer: buf.read(0, 1)[0] for peer, buf in inboxes.items()}

        run = Cluster(n_nodes=4).run(program)
        for rank, inbox in enumerate(run.results):
            for peer, value in inbox.items():
                assert value == peer * 16 + rank

    def test_mixed_intra_and_inter_node(self):
        """2 nodes x 2 ranks: intra-node pairs use shared memory, the rest
        cross the ring; all traffic lands correctly."""
        cluster = Cluster(n_nodes=2, procs_per_node=2)

        def program(ctx):
            comm = ctx.comm
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            out = ctx.alloc(32 * KiB)
            out.fill(comm.rank + 1)
            inbox = ctx.alloc(32 * KiB)
            yield from comm.sendrecv(out, right, inbox, left)
            return inbox.read(0, 1)[0]

        run = cluster.run(program)
        assert run.results == [4, 1, 2, 3]
        # Intra-node traffic must not have touched the SCI counters for
        # the 0<->1 pair alone; at least the inter-node hops did.
        assert cluster.fabric.counters["pio_writes"] > 0


class TestContextInternals:
    def test_same_tag_different_context_no_match(self):
        """Device-level: a message in context A never satisfies a posted
        recv in context B even with matching source and tag."""
        cluster = Cluster(n_nodes=2)

        def program(ctx):
            comm = ctx.comm
            sub = yield from comm.dup()
            buf = ctx.alloc(64)
            if comm.rank == 0:
                buf.fill(1)
                yield from comm.send(buf, dest=1, tag=3)
                return None
            # Probe on the sub communicator must not see the parent's
            # message.
            yield ctx.cluster.engine.timeout(50.0)
            assert sub.iprobe(source=0, tag=3) is None
            assert comm.iprobe(source=0, tag=3) is not None
            yield from comm.recv(buf, source=0, tag=3)
            return buf.read(0, 1)[0]

        run = cluster.run(program)
        assert run.results[1] == 1


class TestEagerSlotRegions:
    """Each sender's eager slots are exported in the receiver's memory on
    its first eager send, so construction is O(ranks), not O(ranks²)."""

    def test_footprint_after_construction_does_not_depend_on_ranks(self):
        from repro.hardware.sci import RingOfRings

        def footprint(n):
            cluster = Cluster(n_nodes=n, topology=RingOfRings(n // 8, 8))
            return cluster.nodes[0].space.allocated

        assert footprint(64) == footprint(1024)

    def test_paper_outlook_constructs(self):
        """512 ringlets of 8 nodes (the paper's outlook): one region for
        every sender's slots took 128 MiB per rank, twice a node's memory."""
        from repro.hardware.sci import RingOfRings

        cluster = Cluster(n_nodes=4096, topology=RingOfRings(512, 8))
        assert cluster.world.n_ranks == 4096

    def test_first_send_exports_the_slots_at_a_kept_alignment(self):
        """An eager threshold that is no multiple of the write alignment:
        each slot keeps the offset residue it had when every sender's
        slots sat side by side in one region, the residue the write-cost
        tables key on."""
        protocol = ProtocolConfig(eager_threshold=1000, eager_slots=3)
        cluster = Cluster(n_nodes=4, protocol=protocol)
        align = cluster.nodes[0].params.write_alignment
        exports = cluster.smi.directory.counters["exports"]

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(600)
            if comm.rank == 3:
                buf.fill(9)
                yield from comm.send(buf, dest=1, tag=0)
            elif comm.rank == 1:
                yield from comm.recv(buf, source=3, tag=0)
                return buf.read(0, 1)[0]

        run = cluster.run(program)
        assert run.results[1] == 9
        devices = cluster.world.devices
        assert list(devices[1].eager_regions) == [3]
        assert not any(d.eager_regions for d in (devices[0], devices[2], devices[3]))
        assert cluster.smi.directory.counters["exports"] == exports + 1
        for slot in range(3):
            offset = devices[3].eager_slot_offset(slot)
            assert offset % align == (3 * 3 + slot) * 1000 % align
        assert devices[1].eager_regions[3].nbytes == devices[3].eager_slot_offset(3)
