"""Tests for ring topology, fluid flow sharing, fabric ops and segments."""

import numpy as np
import pytest

from repro._units import KiB, MiB
from repro.hardware import DEFAULT_NODE, Node, congestion_fraction
from repro.hardware.sci import (
    AccessRun,
    FlowNetwork,
    RingTopology,
    SCIConnectionError,
    SCIFabric,
    SegmentDirectory,
    SegmentError,
    TorusTopology,
    gather_run,
    scatter_run,
)
from repro.sim import Engine


class TestRingTopology:
    def test_distance(self):
        ring = RingTopology(8)
        assert ring.distance(0, 1) == 1
        assert ring.distance(7, 0) == 1
        assert ring.distance(2, 1) == 7
        assert ring.distance(3, 3) == 0

    def test_route_segments(self):
        ring = RingTopology(4)
        route = ring.route(1, 3)
        assert route.data_segments == (1, 2)
        assert route.echo_segments == (3, 0)
        assert route.hops == 2

    def test_route_covers_whole_ring(self):
        ring = RingTopology(8)
        for src in range(8):
            for dst in range(8):
                if src == dst:
                    continue
                r = ring.route(src, dst)
                assert sorted(r.data_segments + r.echo_segments) == list(range(8))

    def test_self_route_empty(self):
        assert RingTopology(4).route(2, 2).hops == 0

    def test_bad_node_rejected(self):
        with pytest.raises(ValueError):
            RingTopology(4).route(0, 4)


class TestTorusTopology:
    def test_coords_roundtrip(self):
        torus = TorusTopology((4, 4, 4))
        assert torus.n_nodes == 64
        for node in range(64):
            assert torus.node_at(torus.coords(node)) == node

    def test_route_dimension_order(self):
        torus = TorusTopology((4, 4))
        route = torus.route(torus.node_at((0, 0)), torus.node_at((2, 1)))
        # Dim 0 first: two hops in the x-ring of row 0, then one in y.
        assert route.hops == 3
        dims_crossed = [seg[0] for seg in route.data_segments]
        assert dims_crossed == sorted(dims_crossed)

    def test_distance(self):
        torus = TorusTopology((8, 8, 8))
        a = torus.node_at((0, 0, 0))
        b = torus.node_at((7, 1, 0))
        assert torus.distance(a, b) == 7 + 1  # wraps take the forward arc

    def test_segments_enumeration(self):
        torus = TorusTopology((2, 3))
        # dim0 rings: 3 rings of 2 segments; dim1 rings: 2 rings of 3.
        assert len(torus.segments()) == 3 * 2 + 2 * 3


class TestCongestionCurve:
    def test_below_threshold_no_loss(self):
        assert congestion_fraction(0.3) == 1.0

    def test_table2_calibration_points(self):
        """The curve reproduces Table 2's per-node bandwidths exactly."""
        demand_per_node = 120.83  # ~120.8 MiB/s per-node injection
        cap = 633.0
        expected = {4: 120.70, 5: 115.80, 6: 97.75, 7: 79.30, 8: 62.78}
        for nodes, per_node in expected.items():
            load = nodes * demand_per_node / cap
            delivered = demand_per_node * congestion_fraction(load)
            assert delivered == pytest.approx(per_node, rel=0.02)

    def test_monotone_after_saturation(self):
        assert congestion_fraction(1.6) < congestion_fraction(1.4)

    def test_efficiency_floor(self):
        # Under extreme overload delivered *efficiency* floors at 0.4.
        load = 10.0
        assert congestion_fraction(load) * load == pytest.approx(0.4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            congestion_fraction(-0.1)


class TestFlowNetwork:
    def _net(self, n=4, cap=100.0):
        eng = Engine()
        ring = RingTopology(n)
        net = FlowNetwork(eng, {s: cap for s in ring.segments()}, echo_ratio=0.0)
        return eng, ring, net

    def test_single_flow_runs_at_cap(self):
        eng, ring, net = self._net()

        def body():
            yield net.transfer(ring.route(0, 1), nbytes=1000.0, rate_cap=10.0)
            return eng.now

        assert eng.run_process(body()) == pytest.approx(100.0)

    def test_disjoint_flows_do_not_interact(self):
        eng, ring, net = self._net()
        done_times = {}

        def xfer(tag, src, dst):
            yield net.transfer(ring.route(src, dst), 1000.0, 10.0)
            done_times[tag] = eng.now

        eng.process(xfer("a", 0, 1))
        eng.process(xfer("b", 2, 3))
        eng.run()
        assert done_times["a"] == pytest.approx(100.0)
        assert done_times["b"] == pytest.approx(100.0)

    def test_saturated_segment_throttles(self):
        """Ten 20-B/µs flows over one 100-B/µs segment get throttled."""
        eng, ring, net = self._net()
        done = []

        def xfer():
            yield net.transfer(ring.route(0, 1), 1000.0, 20.0)
            done.append(eng.now)

        for _ in range(10):
            eng.process(xfer())
        eng.run()
        # demand 200 on cap 100 -> load 2.0 -> heavy congestion; all flows
        # symmetric so all finish together, well after the uncongested 50 µs.
        assert len(done) == 10
        assert all(t == pytest.approx(done[0]) for t in done)
        assert done[0] > 100.0

    def test_flow_speeds_up_when_other_finishes(self):
        eng, ring, net = self._net(cap=100.0)
        finish = {}

        def big():
            yield net.transfer(ring.route(0, 1), 8000.0, 80.0)
            finish["big"] = eng.now

        def small():
            yield net.transfer(ring.route(0, 1), 800.0, 80.0)
            finish["small"] = eng.now

        eng.process(big())
        eng.process(small())
        eng.run()
        # Together: demand 160 on 100 -> throttled; after the small flow
        # finishes the big one speeds back up to its cap.
        assert finish["small"] < finish["big"]
        solo_time = 8000.0 / 80.0
        assert finish["big"] > solo_time  # it was slowed down for a while
        assert finish["big"] < 2.5 * solo_time  # but recovered

    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_superseded_timer_never_sets_the_clock(self, drive):
        """While the link is shared the second flow is due at 118.5 µs;
        once it has the link to itself it finishes at 64.1 µs.  The
        superseded timer must not be what ``run()`` returns, nor count as
        an event, nor move the clock to an instant where nothing happened."""
        from .test_sim_engine import clock_instants

        eng, ring, net = self._net(cap=100.0)
        done = []
        for nbytes in (1000.0, 4000.0):
            event = net.transfer(ring.route(0, 1), nbytes, 90.0)
            event.callbacks.append(lambda _e: done.append(eng.now))
        if drive == "step":
            assert clock_instants(eng) == done
        assert eng.run() == done[-1] == pytest.approx(64.126, abs=1e-3)
        assert done[0] == pytest.approx(29.617, abs=1e-3)
        # Two completions, each one live timer + one done event.
        assert eng.events_processed == 4
        assert eng.pending_events == 0

    def test_zero_byte_transfer_immediate(self):
        eng, ring, net = self._net()

        def body():
            yield net.transfer(ring.route(0, 1), 0.0, 10.0)
            return eng.now

        assert eng.run_process(body()) == 0.0

    def test_echo_traffic_counts_toward_demand(self):
        eng = Engine()
        ring = RingTopology(4)
        net = FlowNetwork(eng, {s: 100.0 for s in ring.segments()}, echo_ratio=0.5)

        net.transfer(ring.route(0, 1), 100.0, 10.0)
        demand = {seg: link.demand for seg, link in net._links.items()}
        # data on segment 0; echo (5.0) on segments 1,2,3.
        assert demand[0] == pytest.approx(10.0)
        assert demand[1] == pytest.approx(5.0)
        eng.run()
        assert net.active_flows == 0

    def test_unknown_segment_rejected(self):
        eng, ring, net = self._net()
        bad = RingTopology(8).route(0, 6)
        with pytest.raises(KeyError):
            net.transfer(bad, 10.0, 1.0)


def make_cluster(n=4):
    eng = Engine()
    nodes = [Node(i, mem_size=8 * MiB) for i in range(n)]
    fabric = SCIFabric(eng, RingTopology(n))
    directory = SegmentDirectory(fabric)
    return eng, nodes, fabric, directory


class TestFabricOps:
    def test_pio_write_timing_scales_with_size(self):
        eng, nodes, fabric, _ = make_cluster()

        def body():
            t0 = eng.now
            yield from fabric.pio_write(0, 1, AccessRun.contiguous(0, 64 * KiB))
            t_small = eng.now - t0
            t0 = eng.now
            yield from fabric.pio_write(0, 1, AccessRun.contiguous(0, 256 * KiB))
            return t_small, eng.now - t0

        t_small, t_big = eng.run_process(body())
        assert 3.0 < t_big / t_small < 5.0  # ~4x the bytes -> ~4x the time

    def test_pio_read_slower_than_write(self):
        eng, nodes, fabric, _ = make_cluster()

        def body():
            t0 = eng.now
            yield from fabric.pio_write(0, 1, AccessRun.contiguous(0, 32 * KiB))
            t_w = eng.now - t0
            t0 = eng.now
            yield from fabric.pio_read(0, 1, AccessRun.contiguous(0, 32 * KiB))
            return t_w, eng.now - t0

        t_w, t_r = eng.run_process(body())
        assert t_r > 3 * t_w

    def test_store_barrier_costs_time(self):
        eng, nodes, fabric, _ = make_cluster()

        def body():
            yield from fabric.store_barrier(0, 1)
            return eng.now

        assert eng.run_process(body()) > 1.0

    def test_failed_node_raises(self):
        eng, nodes, fabric, _ = make_cluster()
        fabric.fail_node(2)
        assert not fabric.ping(0, 2)
        assert fabric.ping(0, 1)

        def body():
            yield from fabric.pio_write(0, 2, AccessRun.contiguous(0, 64))

        with pytest.raises(SCIConnectionError):
            eng.run_process(body())

    def test_failed_segment_breaks_routes_through_it(self):
        eng, nodes, fabric, _ = make_cluster()
        fabric.fail_segment(1)  # link 1 -> 2
        assert not fabric.ping(1, 2)
        assert not fabric.ping(0, 2)
        # 2 -> 3 doesn't use segment 1 for data, but its echo loops the ring.
        assert not fabric.ping(2, 3)
        fabric.restore_segment(1)
        assert fabric.ping(0, 2)

    def test_same_node_write_rejected(self):
        eng, nodes, fabric, _ = make_cluster()
        with pytest.raises(ValueError):
            next(iter(fabric.pio_write(0, 0, AccessRun.contiguous(0, 8))))

    def test_counters(self):
        eng, nodes, fabric, _ = make_cluster()

        def body():
            yield from fabric.pio_write(0, 1, AccessRun.contiguous(0, 128))
            yield from fabric.pio_read(0, 1, AccessRun.contiguous(0, 64))
            yield from fabric.store_barrier(0, 1)

        eng.run_process(body())
        assert fabric.counters["pio_writes"] == 1
        assert fabric.counters["bytes_written"] == 128
        assert fabric.counters["pio_reads"] == 1
        assert fabric.counters["bytes_read"] == 64
        assert fabric.counters["barriers"] == 1

    @pytest.mark.parametrize("write_combining", [True, False])
    def test_pio_write_cost_memo_equals_uncached(self, write_combining):
        """The fabric memoises write costs by target alignment; what it
        returns (and charges) is the uncached cost at the absolute base."""
        from repro.hardware.sci.transactions import remote_write_cost

        slow = DEFAULT_NODE.with_write_combining(write_combining)
        eng = Engine()
        fabric = SCIFabric(eng, RingTopology(4), per_node_params={1: slow})
        rng = np.random.default_rng(9)
        runs = [
            AccessRun(base=int(rng.choice([0, 4, 24, 61])) + 64 * int(rng.integers(0, 512)),
                      size=int(rng.choice([8, 100])),
                      stride=int(rng.choice([256, 264])),
                      count=int(rng.integers(1, 3)))
            for _ in range(400)
        ]

        def body():
            for i, run in enumerate(runs):
                src, cached = i % 2, bool(i % 3)
                t0 = eng.now
                cost = yield from fabric.pio_write(src, 2, run, src_cached=cached)
                fresh = remote_write_cost(run, fabric.params_for(src), src_cached=cached)
                assert cost == fresh
                assert eng.now - t0 >= fresh.duration

        eng.run_process(body())
        stats = fabric._pio_costs.stats()
        assert stats["hits"] > stats["misses"]


class TestScatterGather:
    def test_scatter_then_gather_roundtrip(self):
        mem = np.zeros(256, dtype=np.uint8)
        run = AccessRun(base=10, size=4, stride=12, count=5)
        data = np.arange(20, dtype=np.uint8)
        scatter_run(mem, run, data)
        assert np.array_equal(gather_run(mem, run), data)
        # Gaps untouched:
        assert mem[14] == 0 and mem[15] == 0

    def test_payload_size_mismatch(self):
        mem = np.zeros(64, dtype=np.uint8)
        with pytest.raises(SegmentError):
            scatter_run(mem, AccessRun(0, 4, 8, 2), np.zeros(9, dtype=np.uint8))

    def test_out_of_bounds(self):
        mem = np.zeros(16, dtype=np.uint8)
        with pytest.raises(SegmentError):
            scatter_run(mem, AccessRun(0, 8, 16, 2), np.zeros(16, dtype=np.uint8))


class TestSegments:
    def test_export_import_remote_write(self):
        eng, nodes, fabric, directory = make_cluster()
        target_buf = nodes[1].space.alloc(1024)
        seg = directory.export(nodes[1], target_buf)
        imported = directory.import_segment(nodes[0], seg)
        payload = np.arange(256, dtype=np.uint8)

        def body():
            yield from imported.write_bytes(100, payload)
            yield from imported.barrier()

        eng.run_process(body())
        assert np.array_equal(target_buf.read(100, 256), payload)

    def test_remote_strided_write_and_read(self):
        eng, nodes, fabric, directory = make_cluster()
        seg = directory.export(nodes[2], nodes[2].space.alloc(4096))
        imported = directory.import_segment(nodes[0], seg)
        run = AccessRun(base=0, size=8, stride=16, count=32)
        payload = np.arange(256, dtype=np.uint8)

        def body():
            yield from imported.write(payload, run)
            back = yield from imported.read(run)
            return back

        back = eng.run_process(body())
        assert np.array_equal(back, payload)

    def test_local_import_short_circuits(self):
        """Same-node import costs memory-copy time, not SCI time."""
        eng, nodes, fabric, directory = make_cluster()
        seg = directory.export(nodes[0], nodes[0].space.alloc(64 * KiB))
        local = directory.import_segment(nodes[0], seg)
        assert local.is_local
        payload = np.ones(32 * KiB, dtype=np.uint8)

        def body():
            yield from local.write_bytes(0, payload)
            return eng.now

        t_local = eng.run_process(body())
        assert t_local < 100.0  # a 32 kiB local copy is tens of µs at most
        assert fabric.counters["pio_writes"] == 0
        assert np.array_equal(seg.local_view()[: 32 * KiB], payload)

    def test_write_snapshot_semantics(self):
        """Data is captured when the write is issued, not when it lands."""
        eng, nodes, fabric, directory = make_cluster()
        seg = directory.export(nodes[1], nodes[1].space.alloc(256))
        imported = directory.import_segment(nodes[0], seg)
        src = nodes[0].space.alloc(16)
        src.write(b"original-bytes!!")

        def writer():
            yield from imported.write_bytes(0, src.read())

        def clobberer():
            yield eng.timeout(0.01)
            src.write(b"XXXXXXXXXXXXXXXX")

        eng.process(writer())
        eng.process(clobberer())
        eng.run()
        assert seg.local_view()[:16].tobytes() == b"original-bytes!!"

    def test_dma_write(self):
        eng, nodes, fabric, directory = make_cluster()
        seg = directory.export(nodes[1], nodes[1].space.alloc(1 * MiB))
        imported = directory.import_segment(nodes[0], seg)
        payload = np.full(512 * KiB, 7, dtype=np.uint8)

        def body():
            yield from imported.dma_write(0, payload)
            return eng.now

        t = eng.run_process(body())
        assert t > 24.0  # at least the DMA setup cost
        assert fabric.counters["dma_transfers"] == 1
        assert (seg.local_view()[: 512 * KiB] == 7).all()

    def test_export_foreign_buffer_rejected(self):
        eng, nodes, fabric, directory = make_cluster()
        with pytest.raises(SegmentError):
            directory.export(nodes[0], nodes[1].space.alloc(64))

    def test_out_of_segment_write_rejected(self):
        eng, nodes, fabric, directory = make_cluster()
        seg = directory.export(nodes[1], nodes[1].space.alloc(64))
        imported = directory.import_segment(nodes[0], seg)

        def body():
            yield from imported.write_bytes(32, np.zeros(64, dtype=np.uint8))

        with pytest.raises(SegmentError):
            eng.run_process(body())


class TestConcurrencyEffects:
    def test_concurrent_writers_share_ring(self):
        """Two transfers crossing the same segment take longer than alone."""
        eng, nodes, fabric, directory = make_cluster(n=4)
        seg3 = directory.export(nodes[3], nodes[3].space.alloc(2 * MiB))
        imp_a = directory.import_segment(nodes[0], seg3)
        imp_b = directory.import_segment(nodes[1], seg3)
        payload = np.zeros(1 * MiB, dtype=np.uint8)
        finish = {}

        def solo():
            t0 = eng.now
            yield from imp_a.write(payload, AccessRun.contiguous(0, payload.nbytes))
            return eng.now - t0

        solo_time = eng.run_process(solo())

        def xfer(tag, imp, offset):
            t0 = eng.now
            yield from imp.write(payload, AccessRun.contiguous(offset, payload.nbytes))
            finish[tag] = eng.now - t0

        eng.process(xfer("a", imp_a, 0))
        eng.process(xfer("b", imp_b, 1 * MiB))
        eng.run()
        # Demand 2 x ~167 B/µs on a 664 B/µs segment -> load ~0.5: no loss.
        # Drop capacity to force contention instead: rerun on a slow fabric.
        assert finish["a"] == pytest.approx(solo_time, rel=0.1)

    def test_contention_on_slow_links(self):
        eng = Engine()
        nodes = [Node(i, mem_size=4 * MiB) for i in range(4)]
        slow = DEFAULT_NODE.with_link_mhz(40.0)  # 160 B/µs links
        fabric = SCIFabric(eng, RingTopology(4), node_params=slow)
        directory = SegmentDirectory(fabric)
        seg = directory.export(nodes[3], nodes[3].space.alloc(2 * MiB))
        imps = [directory.import_segment(nodes[i], seg) for i in range(3)]
        payload = np.zeros(256 * KiB, dtype=np.uint8)
        finish = {}

        def xfer(tag, imp, offset):
            t0 = eng.now
            yield from imp.write(payload, AccessRun.contiguous(offset, payload.nbytes))
            finish[tag] = eng.now - t0

        def solo():
            t0 = eng.now
            yield from imps[0].write(payload, AccessRun.contiguous(0, payload.nbytes))
            return eng.now - t0

        solo_time = eng.run_process(solo())
        for i in range(3):
            eng.process(xfer(i, imps[i], i * 256 * KiB))
        eng.run()
        assert max(finish.values()) > 1.5 * solo_time
