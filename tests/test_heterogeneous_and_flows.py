"""Tests for heterogeneous node parameters and flow-network conservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import KiB, MiB
from repro.hardware import DEFAULT_NODE, Node, congestion_fraction
from repro.hardware.sci import AccessRun, FlowNetwork, RingTopology, SCIFabric
from repro.hardware.sci.flows import fair_share
from repro.hardware.sci.segments import SegmentDirectory
from repro.hardware.sci.topology import FatTree, RingOfRings, Route, TorusTopology
from repro.sim import Engine


class TestHeterogeneousNodes:
    def test_per_node_params_affect_source_side(self):
        """A node with write-combining disabled sends slower; receiving at
        it is unaffected (PIO cost is origin-side)."""
        eng = Engine()
        nodes = [Node(i, mem_size=8 * MiB) for i in range(2)]
        slow = DEFAULT_NODE.with_write_combining(False)
        fabric = SCIFabric(
            eng, RingTopology(2), per_node_params={0: slow}
        )
        directory = SegmentDirectory(fabric)
        seg0 = directory.export(nodes[0], nodes[0].space.alloc(1 * MiB))
        seg1 = directory.export(nodes[1], nodes[1].space.alloc(1 * MiB))
        payload = np.zeros(256 * KiB, dtype=np.uint8)

        def timed(imported):
            t0 = eng.now
            yield from imported.write(payload, AccessRun.contiguous(0, payload.nbytes))
            return eng.now - t0

        t_from_slow = eng.run_process(
            timed(directory.import_segment(nodes[0], seg1))
        )
        t_from_fast = eng.run_process(
            timed(directory.import_segment(nodes[1], seg0))
        )
        assert t_from_slow > 1.5 * t_from_fast

    def test_params_for_lookup(self):
        eng = Engine()
        slow = DEFAULT_NODE.with_link_mhz(100.0)
        fabric = SCIFabric(eng, RingTopology(4), per_node_params={2: slow})
        assert fabric.params_for(2).link.frequency_mhz == 100.0
        assert fabric.params_for(0).link.frequency_mhz == 166.0


class TestFlowConservation:
    @settings(max_examples=40, deadline=None)
    @given(
        nbytes=st.lists(st.integers(min_value=1, max_value=10_000),
                        min_size=1, max_size=6),
        caps=st.lists(st.floats(min_value=1.0, max_value=100.0),
                      min_size=1, max_size=6),
    )
    def test_property_all_flows_complete(self, nbytes, caps):
        """Every flow completes, regardless of contention level."""
        eng = Engine()
        ring = RingTopology(4)
        net = FlowNetwork(eng, {s: 50.0 for s in ring.segments()})
        done = []
        for i, (n, cap) in enumerate(zip(nbytes, caps * len(nbytes))):
            ev = net.transfer(ring.route(i % 4, (i + 1) % 4), float(n), cap)
            ev.callbacks.append(lambda _e: done.append(eng.now))
        eng.run()
        assert len(done) == len(nbytes)
        assert net.active_flows == 0

    def test_rates_never_exceed_caps(self):
        eng = Engine()
        ring = RingTopology(2)
        net = FlowNetwork(eng, {s: 1000.0 for s in ring.segments()})
        net.transfer(ring.route(0, 1), 500.0, 10.0)

        def check():
            yield eng.timeout(1.0)
            for flow in net._flows.values():
                assert flow.rate <= flow.rate_cap + 1e-9

        eng.process(check())
        eng.run()

    def test_completion_time_scales_with_share(self):
        """Two identical competing flows take about twice as long as one,
        when the segment is the binding constraint."""
        def run(n_flows):
            eng = Engine()
            ring = RingTopology(2)
            # Capacity below the sum of caps -> congestion response kicks in.
            net = FlowNetwork(eng, {s: 15.0 for s in ring.segments()})
            for _ in range(n_flows):
                net.transfer(ring.route(0, 1), 1500.0, 10.0)
            eng.run()
            return eng.now

        t1, t2 = run(1), run(2)
        assert t2 > 1.5 * t1


class AllLinksNetwork(FlowNetwork):
    """Brute-force reference: the sharing formula over *every* link.

    One demand and one fraction entry per link of the fabric, idle or
    not, rebuilt on every change — what ``FlowNetwork`` did before its
    recompute walked only the links of active routes.  Everything else
    (timers, byte accounting) is inherited, so the two networks can only
    differ where the arithmetic does.
    """

    def _throttles(self, flows, record_peak=True):
        demand = {seg: 0.0 for seg in self.capacities}
        for route, cap in flows:
            for seg in route.data_segments:
                demand[seg] += cap
            for seg in route.echo_segments:
                demand[seg] += cap * self.echo_ratio
        frac = {seg: self.response(d / self.capacities[seg])
                for seg, d in demand.items()}
        if record_peak:
            for seg, d in demand.items():
                load = d / self.capacities[seg]
                if load > self._peak_load[seg]:
                    self._peak_load[seg] = load
        return [min(frac[s] for s in route.data_segments) for route, _ in flows]


def _arrivals(rng, topology):
    """1-12 overlapping flows: (start, src, dst, nbytes, rate_cap)."""
    out = []
    for _ in range(int(rng.integers(1, 13))):
        src, dst = rng.choice(topology.n_nodes, size=2, replace=False)
        out.append((
            float(rng.choice([0.0, 0.0, 2.5, 7.0, 7.0, 30.0])),
            int(src), int(dst),
            float(rng.integers(1, 64) * 1024),
            # Caps up to ~0.7 of a link: two or three sharing a link
            # push it past the congestion knee and past capacity.
            float(rng.choice([40.0, 120.8, 300.0, 450.0])),
        ))
    return out


def _drive(network_cls, topology, response, arrivals):
    eng = Engine()
    capacities = {seg: topology.link_capacity(seg, 664.0)
                  for seg in topology.segments()}
    net = network_cls(eng, capacities, response=response)
    log = []

    def snapshot(tag):
        log.append((tag, eng.now, [f.rate for f in net._flows.values()],
                    net.link_demand(), net.link_load()))

    def sender(i, start, src, dst, nbytes, cap):
        yield eng.timeout(start)
        done = net.transfer(topology.route(src, dst), nbytes, cap)
        snapshot(("start", i))
        yield done
        snapshot(("done", i))

    for i, arrival in enumerate(arrivals):
        eng.process(sender(i, *arrival))
    eng.run()
    return log, net.link_peak(), net.link_bytes(), capacities


class TestFlowOracle:
    TOPOLOGIES = {
        "ring": lambda: RingTopology(8),
        "ring_of_rings": lambda: RingOfRings(3, 4),
        "fat_tree": lambda: FatTree(3, 4, fat_factor=2.0),
    }

    @pytest.mark.parametrize("response", [congestion_fraction, fair_share])
    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_active_route_recompute_matches_all_links_formula(self, kind, response):
        contended = 0
        for seed in range(25):
            topology = self.TOPOLOGIES[kind]()
            arrivals = _arrivals(np.random.default_rng([seed, len(kind)]), topology)
            got = _drive(FlowNetwork, topology, response, arrivals)
            want = _drive(AllLinksNetwork, topology, response, arrivals)
            log, peaks, link_bytes, capacities = got
            # Rates after every change, completion instants, per-link
            # demand/load/peak/bytes: equal as floats, not approximately.
            assert got == want, (kind, seed)
            assert len(log) == 2 * len(arrivals)
            for _tag, _now, _rates, demand, load in log:
                assert demand.keys() == load.keys() == capacities.keys()
            assert peaks.keys() == link_bytes.keys() == capacities.keys()
            contended += max(peaks.values()) > 0.6
        assert contended >= 5  # the sequences do reach the congested regime


class TestRouteMemo:
    TOPOLOGIES = [
        lambda: RingTopology(6),
        lambda: TorusTopology((3, 4)),
        lambda: RingOfRings(3, 4),
        lambda: FatTree(3, 4),
    ]

    @pytest.mark.parametrize("make", TOPOLOGIES)
    def test_routes_are_resolved_once_and_stay_equal(self, make):
        topology, fresh = make(), make()
        n = topology.n_nodes
        for src in range(n):
            assert topology.route(src, src) == Route((), ())
            for dst in range(n):
                first = topology.route(src, dst)
                assert topology.route(src, dst) is first
                # A memo hit is what a topology that never saw the pair computes.
                assert first == fresh._compute_route(src, dst)
                assert topology.distance(src, dst) == first.hops

    @pytest.mark.parametrize("make", TOPOLOGIES)
    def test_invalid_endpoints_raise_on_every_call(self, make):
        topology = make()
        n = topology.n_nodes
        for src, dst in [(-1, 0), (0, n), (n, n), (0, -1)]:
            for _ in range(2):  # a failure is never stored
                with pytest.raises(ValueError):
                    topology.route(src, dst)
        assert topology.route(0, n - 1).hops > 0
