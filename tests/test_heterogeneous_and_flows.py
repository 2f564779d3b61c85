"""Tests for heterogeneous node parameters and flow-network conservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import KiB, MiB
from repro.hardware import DEFAULT_NODE, Node, congestion_fraction
from repro.hardware.sci import AccessRun, FlowNetwork, RingTopology, SCIFabric
from repro.hardware.sci import flows as flows_module
from repro.hardware.sci.flows import fair_share
from repro.hardware.sci.segments import SegmentDirectory
from repro.hardware.sci.topology import FatTree, RingOfRings, Route, TorusTopology
from repro.sim import Engine, Event, Timeout


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


class _RefFlow:
    __slots__ = ("flow_id", "route", "remaining", "rate_cap", "rate", "done", "version")

    def __init__(self, flow_id, route, nbytes, rate_cap, done):
        self.flow_id = flow_id
        self.route = route
        self.remaining = float(nbytes)
        self.rate_cap = rate_cap
        self.rate = rate_cap
        self.done = done
        self.version = 0


class RecomputeEverythingNetwork:
    """The live path ``FlowNetwork`` had before it kept per-link state,
    verbatim: every start and finish rebuilds the demand of every active
    route, re-rates every flow and pushes a timer for every flow (stale
    ones fire and are ignored).  The reference the incremental network
    must equal float for float."""

    def __init__(self, engine, capacities, echo_ratio=0.1, name="sci", response=None):
        self.engine = engine
        self.capacities = dict(capacities)
        self.echo_ratio = echo_ratio
        self._done_name = f"{name}:flow-done"
        self._timer_name = f"{name}:flow-timer"
        self.response = response if response is not None else congestion_fraction
        self._flows = {}
        self._next_id = 0
        self._last_update = engine.now
        self._peak_load = {seg: 0.0 for seg in capacities}
        self._link_bytes = {seg: 0.0 for seg in capacities}

    @property
    def active_flows(self):
        return len(self._flows)

    def transfer(self, route, nbytes, rate_cap):
        done = Event(self.engine, self._done_name)
        if nbytes > 0 and rate_cap <= 0:
            raise ValueError(f"non-positive rate cap: {rate_cap}")
        if nbytes <= 0 or not route.data_segments:
            done.succeed()
            return done
        for seg in route.data_segments + route.echo_segments:
            if seg not in self.capacities:
                raise KeyError(f"unknown segment {seg!r}")
        flow = _RefFlow(self._next_id, route, nbytes, rate_cap, done)
        self._next_id += 1
        self._advance()
        self._flows[flow.flow_id] = flow
        self._recompute()
        return done

    def link_demand(self):
        flows = ((f.route, f.rate_cap) for f in self._flows.values())
        return {**dict.fromkeys(self.capacities, 0.0), **self._demand(flows)}

    def link_load(self):
        return {seg: d / self.capacities[seg] for seg, d in self.link_demand().items()}

    def link_peak(self):
        return dict(self._peak_load)

    def link_bytes(self):
        return dict(self._link_bytes)

    def _demand(self, flows):
        demand = {}
        for route, cap in flows:
            for seg in route.data_segments:
                demand[seg] = demand.get(seg, 0.0) + cap
            echo = cap * self.echo_ratio
            for seg in route.echo_segments:
                demand[seg] = demand.get(seg, 0.0) + echo
        return demand

    def _throttles(self, flows, record_peak=True):
        loads = self._demand(flows)
        for seg, d in loads.items():
            load = loads[seg] = d / self.capacities[seg]
            if record_peak and load > self._peak_load[seg]:
                self._peak_load[seg] = load
        frac = {}
        throttles = []
        for route, _ in flows:
            worst = None
            for seg in route.data_segments:
                load = loads[seg]
                f = frac.get(load)
                if f is None:
                    f = frac[load] = self.response(load)
                if worst is None or f < worst:
                    worst = f
            throttles.append(worst)
        return throttles

    def _advance(self):
        elapsed = self.engine.now - self._last_update
        if elapsed > 0:
            for flow in self._flows.values():
                delivered = min(flow.remaining, flow.rate * elapsed)
                flow.remaining -= delivered
                if delivered > 0:
                    for seg in flow.route.data_segments:
                        self._link_bytes[seg] += delivered
        self._last_update = self.engine.now

    def _recompute(self):
        flows = list(self._flows.values())
        throttles = self._throttles([(f.route, f.rate_cap) for f in flows])
        for flow, throttle in zip(flows, throttles):
            flow.rate = flow.rate_cap * throttle
            flow.version += 1
            timer = Timeout(self.engine, flow.remaining / flow.rate,
                            (flow, flow.version), self._timer_name)
            timer.callbacks.append(self._on_timer)

    def _on_timer(self, timer):
        flow, version = timer._value
        if flow.version != version or flow.flow_id not in self._flows:
            return  # stale timer from before a rate change
        self._advance()
        if flow.remaining > 0:
            for seg in flow.route.data_segments:
                self._link_bytes[seg] += flow.remaining
        flow.remaining = 0.0
        del self._flows[flow.flow_id]
        flow.done.succeed()
        if self._flows:
            self._recompute()


class AllLinksNetwork(RecomputeEverythingNetwork):
    """The sharing formula over *every* link: one demand and one fraction
    entry per link of the fabric, idle or not, rebuilt on every change."""

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


def _crowd(rng, topology, n_flows, local, staggered, equal_caps):
    """16-64 flows on a ring of ringlets: ``local`` keeps each route inside
    the source's 8-node ringlet, otherwise it crosses the switch; equal
    caps and sizes with simultaneous starts produce exact finish ties."""
    out = []
    for _ in range(n_flows):
        src = int(rng.integers(topology.n_nodes))
        ringlet = src // 8
        if local:
            dst = 8 * ringlet + int((src % 8 + rng.integers(1, 8)) % 8)
        else:
            dst = int((src + 8 * rng.integers(1, 8)) % topology.n_nodes)
        out.append((
            float(rng.choice([0.0, 1.5, 1.5, 4.0, 9.0])) if staggered else 0.0,
            src, dst,
            8192.0 if equal_caps else float(rng.integers(1, 32) * 1024),
            120.8 if equal_caps else float(rng.choice([40.0, 120.8, 300.0, 450.0])),
        ))
    return out


def _live_flow_timers(eng, net):
    return sum(1 for _when, _seq, ev in eng._queue
               if ev.name == net._timer_name and ev.callbacks is not None)


def _drive(network_cls, topology, response, arrivals):
    eng = Engine()
    capacities = {seg: topology.link_capacity(seg, 664.0)
                  for seg in topology.segments()}
    net = network_cls(eng, capacities, response=response)
    log = []
    max_live_timers = 0

    def snapshot(tag):
        nonlocal max_live_timers
        max_live_timers = max(max_live_timers, _live_flow_timers(eng, net))
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
    end = eng.run()
    return (log, net.link_peak(), net.link_bytes(), capacities), end, max_live_timers


class TestFlowOracle:
    TOPOLOGIES = {
        "ring": lambda: RingTopology(8),
        "ring_of_rings": lambda: RingOfRings(3, 4),
        "fat_tree": lambda: FatTree(3, 4, fat_factor=2.0),
    }

    def _assert_equal(self, topology, response, arrivals, label):
        got, end, live_timers = _drive(FlowNetwork, topology, response, arrivals)
        want, want_end, _ = _drive(RecomputeEverythingNetwork, topology,
                                   response, arrivals)
        # Rates after every change, completion instants *and their
        # order*, per-link demand/load/peak/bytes: equal as floats, not
        # approximately.
        assert got == want, label
        # The clock stops at the last completion; the reference agrees
        # unless one of its stale timers outlives the last flow.
        assert end == got[0][-1][1], label
        assert want_end >= end, label
        assert live_timers <= 1, label
        return got

    @pytest.mark.parametrize("response", [congestion_fraction, fair_share])
    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_incremental_network_matches_recompute_everything(self, kind, response):
        contended = 0
        for seed in range(25):
            topology = self.TOPOLOGIES[kind]()
            arrivals = _arrivals(np.random.default_rng([seed, len(kind)]), topology)
            log, peaks, link_bytes, capacities = self._assert_equal(
                topology, response, arrivals, (kind, seed))
            assert _drive(AllLinksNetwork, topology, response, arrivals)[0] == (
                log, peaks, link_bytes, capacities), (kind, seed)
            assert len(log) == 2 * len(arrivals)
            for _tag, _now, _rates, demand, load in log:
                assert demand.keys() == load.keys() == capacities.keys()
            assert peaks.keys() == link_bytes.keys() == capacities.keys()
            contended += max(peaks.values()) > 0.6
        assert contended >= 5  # the sequences do reach the congested regime

    @pytest.mark.parametrize("response", [congestion_fraction, fair_share])
    @pytest.mark.parametrize("equal_caps", [True, False])
    @pytest.mark.parametrize("staggered", [True, False])
    @pytest.mark.parametrize("local", [True, False])
    @pytest.mark.parametrize("n_flows", [16, 32, 64])
    def test_crowded_ring_of_ringlets(self, n_flows, local, staggered,
                                      equal_caps, response):
        topology = RingOfRings(8, 8)
        rng = np.random.default_rng([n_flows, local, staggered, equal_caps])
        arrivals = _crowd(rng, topology, n_flows, local, staggered, equal_caps)
        log, peaks, _bytes, _caps = self._assert_equal(
            topology, response, arrivals,
            (n_flows, local, staggered, equal_caps))
        assert len(log) == 2 * n_flows
        assert max(len(rates) for _t, _n, rates, _d, _l in log) >= n_flows // 2
        if equal_caps and not staggered:
            done_at = [now for tag, now, *_ in log if tag[0] == "done"]
            assert len(set(done_at)) < len(done_at)  # exact ties occurred

    def test_unknown_link_raises_on_every_transfer(self):
        eng = Engine()
        ring = RingTopology(4)
        net = FlowNetwork(eng, {s: 100.0 for s in ring.segments()})
        bad = Route(ring.route(0, 2).data_segments + ("nowhere",), ())
        for _ in range(2):  # a failed resolution is never stored
            with pytest.raises(KeyError, match="unknown segment 'nowhere'"):
                net.transfer(bad, 100.0, 10.0)
        assert net.active_flows == 0
        assert all(d == 0.0 for d in net.link_demand().values())
        good = ring.route(0, 2)
        for _ in range(2):
            net.transfer(good, 100.0, 10.0)
        with pytest.raises(KeyError):
            net.transfer(bad, 100.0, 10.0)
        eng.run()
        assert net.active_flows == 0


@pytest.fixture
def ratings(monkeypatch):
    """Patch in a ``Flow`` that logs every assignment to ``rate``; the log
    maps flow id -> the values assigned, ``__init__``'s first."""
    log = {}

    class CountingFlow(flows_module.Flow):
        @property
        def rate(self):
            return self._rate

        @rate.setter
        def rate(self, value):
            self._rate = value
            log.setdefault(self.flow_id, []).append(value)

    monkeypatch.setattr(flows_module, "Flow", CountingFlow)
    return log


def _calm(rng, topology, lockstep):
    """200 flows in start order that keep every link below the congestion
    knee: one per node at the same instants (the sparse sweeps' pattern)
    or at seeded staggered instants (the KV clients')."""
    n = topology.n_nodes
    out, clock = [], 0.0
    for i in range(200):
        if lockstep:
            clock, src = 6.0 * n * (i // n), i % n
        else:
            clock, src = clock + float(rng.uniform(0.0, 12.0)), int(rng.integers(n))
        out.append((
            clock, src, (src + 1 + int(rng.integers(n - 1))) % n,
            float(rng.integers(256, 2049)),
            float(rng.choice([20.0, 40.0, 60.0])),
        ))
    return out


class TestFractionMovedRule:
    """A flow is re-rated only when the delivered fraction of a link it
    uses moved — seen through the ``ratings`` log, checked against the
    network that re-rates everything on every change."""

    @pytest.mark.parametrize("lockstep", [True, False], ids=["lockstep", "staggered"])
    @pytest.mark.parametrize("n_nodes", [2, 8])
    def test_below_the_knee_only_the_started_flow_is_rated(self, n_nodes, lockstep,
                                                           ratings):
        topology = RingTopology(n_nodes)
        arrivals = _calm(np.random.default_rng([n_nodes, lockstep]), topology, lockstep)
        loads = []

        def response(load):
            loads.append(load)
            return congestion_fraction(load)

        got, _end, _timers = _drive(FlowNetwork, topology, response, arrivals)
        # Flow ids follow start order, so flow i is arrival i: its rate was
        # assigned by __init__ and when it started, never again, always its cap.
        assert ratings == {i: [cap, cap] for i, (*_, cap) in enumerate(arrivals)}
        assert len(loads) == len(set(loads)) > 10  # one evaluation per distinct load
        assert 0.2 < max(loads) < 0.6
        concurrent = max(len(rates) for _tag, _now, rates, _d, _l in got[0])
        assert concurrent >= (n_nodes if lockstep else 3)
        assert got == _drive(RecomputeEverythingNetwork, topology,
                             congestion_fraction, arrivals)[0]

    def test_across_the_knee_and_back_rates_the_flows_on_the_moved_link(self, ratings):
        topology = RingOfRings(3, 4)  # ringlet-local flows of two ringlets share no link
        arrivals = [
            (0.0, 0, 1, 61440.0, 300.0),   # 0: alone on its data link: load 0.45
            (0.0, 4, 5, 61440.0, 300.0),   # 1: the other ringlet
            (0.0, 2, 3, 61440.0, 300.0),   # 2: same ringlet, only its echo is on 0's link
            (10.0, 0, 1, 3000.0, 300.0),   # 3: joins 0: load 0.95 until it finishes
            (60.0, 0, 1, 2048.0, 40.0),    # 4: joins 0: load 0.56, below the knee
        ]
        got = _drive(FlowNetwork, topology, congestion_fraction, arrivals)[0]
        throttled = ratings[3][1]
        assert 0.9 * 300.0 < throttled < 300.0
        assert ratings == {
            0: [300.0, 300.0, throttled, 300.0],  # re-rated when 3 came and went
            1: [300.0, 300.0],                    # none of its links moved
            2: [300.0, 300.0, 300.0, 300.0],      # on the moved link, rate unchanged
            3: [300.0, throttled],
            4: [40.0, 40.0],                      # moved nothing, and nobody
        }
        assert got == _drive(RecomputeEverythingNetwork, topology,
                             congestion_fraction, arrivals)[0]
        done = [tag[1] for tag, *_ in got[0] if tag[0] == "done"]
        assert done == [3, 4, 1, 2, 0]  # the throttled flow finishes after its peers


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
