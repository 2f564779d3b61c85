"""Unit tests for the bandwidth-reservation / QoS subsystem (``repro.qos``).

Four layers, bottom-up:

* the :class:`Reservation` state machine (every edge, including the
  idempotent release and the fault-driven revoke -> reprovision epoch);
* the :class:`AdmissionController` ledger — in particular the
  *inclusive* boundary (a request landing exactly on the budget is
  granted) and charge withdrawal on release;
* the lanes' throttle law (:func:`throttle_factor`) and its starvation
  floor;
* the :class:`QosManager` on a real cluster fabric: lane assignment,
  enforcement shaping (identity when idle, policing for reserved,
  throttling for best-effort) and the fault-ladder sync.

Plus the two scheduling hooks the lanes ride on: priority-aware
:class:`~repro.sim.resources.Resource` grant order and the receiver's
``_rndv_priority``.
"""

import pytest

from repro.cluster import Cluster
from repro.hardware.sci.faults import FaultPlan
from repro.qos import (
    BESTEFFORT_FLOOR,
    LANE_BEST_EFFORT,
    LANE_RESERVED,
    MAX_SHARE,
    QOS_COUNTERS,
    AdmissionController,
    AdmissionDenied,
    QosInstruments,
    QosManager,
    Reservation,
    ReservationState,
    ReservationStateError,
    throttle_factor,
)
from repro.sim.engine import Engine
from repro.sim.resources import Resource


def make_reservation(rate=10.0, links=("a", "b")):
    return Reservation(0, "t", [(0, 1)], rate, links)


class TestReservationLifecycle:
    def test_happy_path_history(self):
        res = make_reservation()
        res.admit()
        res.provision()
        res.activate()
        assert res.enforcing
        res.release()
        assert res.history == ["requested", "reserved", "provisioned",
                               "active", "released"]

    def test_release_is_idempotent(self):
        res = make_reservation()
        res.admit()
        res.release()
        res.release()  # no-op, not an error
        assert res.state == ReservationState.RELEASED
        assert res.history.count("released") == 1

    def test_revoke_reprovision_bumps_epoch(self):
        res = make_reservation()
        res.admit()
        res.provision()
        res.activate()
        res.revoke()
        assert not res.enforcing
        res.reprovision()
        assert res.epoch == 1
        res.activate()
        assert res.enforcing

    @pytest.mark.parametrize("verb", ["provision", "activate", "revoke",
                                      "reprovision"])
    def test_illegal_transitions_raise(self, verb):
        res = make_reservation()  # REQUESTED: only admit/nothing is legal
        with pytest.raises(ReservationStateError, match=f"cannot {verb}"):
            getattr(res, verb)()

    def test_activate_requires_provisioned(self):
        res = make_reservation()
        res.admit()
        with pytest.raises(ReservationStateError):
            res.activate()

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="rate"):
            make_reservation(rate=0.0)

    def test_describe_is_json_ready(self):
        res = make_reservation(links=(("x", 1), ("r", 0, 2)))
        assert res.describe()["links"] == ["('r', 0, 2)", "('x', 1)"]
        assert res.describe()["state"] == "requested"


class TestAdmission:
    def make(self, cap=100.0):
        return AdmissionController({"l0": cap, "l1": cap})

    def test_exact_boundary_is_admitted(self):
        """The budget is inclusive: a request landing exactly on
        MAX_SHARE * capacity is granted, one epsilon above is not."""
        ctl = self.make()
        exact = make_reservation(rate=80.0, links=("l0",))
        ctl.admit(exact)
        assert ctl.headroom("l0") == 0.0
        over = Reservation(1, "t", [(0, 1)], 1e-9, ("l0",))
        with pytest.raises(AdmissionDenied):
            ctl.admit(over)
        assert over.state == ReservationState.REQUESTED  # not charged

    def test_denial_carries_per_link_evidence(self):
        ctl = self.make()
        with pytest.raises(AdmissionDenied) as exc:
            ctl.admit(make_reservation(rate=90.0, links=("l0", "l1")))
        rows = exc.value.decision.links
        assert [row["link"] for row in rows] == ["l0", "l1"]
        assert all(row["requested"] == 90.0 and row["budget"] == 80.0
                   for row in rows)
        assert "l0" in str(exc.value)

    def test_denial_on_any_single_link_blocks_the_whole_path(self):
        ctl = self.make()
        ctl.admit(make_reservation(rate=80.0, links=("l1",)))
        with pytest.raises(AdmissionDenied):
            ctl.admit(Reservation(1, "t", [(0, 1)], 10.0, ("l0", "l1")))
        assert ctl.admitted("l0") == 0.0  # nothing partially charged

    def test_withdraw_returns_the_charge(self):
        ctl = self.make()
        res = make_reservation(rate=80.0, links=("l0",))
        ctl.admit(res)
        res.release()
        ctl.withdraw(res)
        assert ctl.headroom("l0") == 80.0
        ctl.admit(Reservation(1, "t", [(0, 1)], 80.0, ("l0",)))

    def test_withdraw_requires_released_state(self):
        ctl = self.make()
        res = make_reservation(rate=10.0, links=("l0",))
        ctl.admit(res)
        with pytest.raises(ReservationStateError, match="withdraw"):
            ctl.withdraw(res)

    def test_charge_survives_revocation(self):
        """A revoked reservation keeps its budget, so re-provisioning
        cannot be starved by later arrivals."""
        ctl = self.make()
        res = make_reservation(rate=80.0, links=("l0",))
        ctl.admit(res)
        res.provision()
        res.activate()
        res.revoke()
        assert ctl.headroom("l0") == 0.0

    def test_unknown_link_raises(self):
        with pytest.raises(KeyError):
            self.make().check(["nope"], 1.0)

    def test_budget_is_max_share_of_each_links_own_capacity(self):
        ctl = AdmissionController({"l0": 100.0, "l1": 50.0})
        assert ctl.budget("l0") == MAX_SHARE * 100.0
        assert ctl.budget("l1") == MAX_SHARE * 50.0
        ctl.admit(make_reservation(rate=MAX_SHARE * 50.0, links=("l1",)))
        assert ctl.headroom("l1") == 0.0
        assert ctl.headroom("l0") == MAX_SHARE * 100.0  # untouched


class TestLanePolicy:
    def test_throttle_law_and_floor(self):
        assert (MAX_SHARE, BESTEFFORT_FLOOR) == (0.8, 0.2)
        assert throttle_factor(0.0) == 1.0
        assert throttle_factor(0.5) == 0.5
        # The starvation bound: even a fully reserved link keeps the floor.
        assert throttle_factor(0.9) == 0.2
        assert throttle_factor(1.0) == 0.2

    def test_default_floor_is_complement_of_max_share(self):
        assert BESTEFFORT_FLOOR == pytest.approx(1.0 - MAX_SHARE)

    def test_throttle_never_rises_with_share(self):
        shares = [i / 20 for i in range(25)]  # 0.0 .. 1.2
        factors = [throttle_factor(s) for s in shares]
        assert all(a >= b for a, b in zip(factors, factors[1:]))
        assert min(factors) == BESTEFFORT_FLOOR
        for share, factor in zip(shares, factors):
            if 1.0 - share > BESTEFFORT_FLOOR:
                assert factor == 1.0 - share

    def test_describe_for_policy_gauges(self):
        """The policy gauges carry no lane values; the manager's report
        states the lane constants, credit priority always on."""
        cluster = Cluster(n_nodes=2)
        qos = QosManager.install(cluster)
        snap = cluster.metrics.snapshot()
        assert "policy.hier_collectives" in snap
        assert not [k for k in snap if k.startswith("policy.qos_")]
        assert qos.describe()["lanes"] == {
            "besteffort_floor": 0.2,
            "credit_priority": True,
            "max_share": 0.8,
        }

    def test_lane_constants_are_not_parameters(self):
        with pytest.raises(TypeError):
            QosManager.install(Cluster(n_nodes=2), lanes=None)
        with pytest.raises(TypeError):
            AdmissionController({"l0": 100.0}, max_share=0.5)


class TestManagerOnCluster:
    def make(self, n=4, faults=None):
        cluster = Cluster(n_nodes=n, faults=faults)
        qos = QosManager.install(cluster)
        qos.add_tenant("r", [0, 1])
        return cluster, qos

    def activated(self, qos, paths=((0, 1),), share=0.4):
        rate = share * min(qos.route_capacity(s, d) for s, d in paths)
        res = qos.reserve("r", paths, rate)
        qos.provision(res)
        qos.activate(res)
        return res

    def test_install_hooks_the_fabric(self):
        cluster, qos = self.make()
        assert cluster.fabric.qos is qos
        assert not qos.enforcing  # installed-but-idle is behaviour-neutral

    def test_tenant_sets_must_be_disjoint(self):
        _, qos = self.make()
        with pytest.raises(ValueError, match="duplicate tenant"):
            qos.add_tenant("r", [3])
        with pytest.raises(ValueError, match="already belong"):
            qos.add_tenant("b", [1, 2])

    def test_lane_follows_active_reservations_only(self):
        _, qos = self.make()
        assert qos.lane_of_node(0) == LANE_BEST_EFFORT  # tenant, no res
        res = self.activated(qos)
        assert qos.lane_of_node(0) == LANE_RESERVED
        assert qos.lane_of_node(1) == LANE_RESERVED  # same tenant
        assert qos.lane_of_node(2) == LANE_BEST_EFFORT  # no tenant
        qos.release(res)
        assert qos.lane_of_node(0) == LANE_BEST_EFFORT

    def test_shape_is_identity_while_idle(self):
        _, qos = self.make()
        route = qos.fabric.topology.route(2, 3)
        assert qos.shape_duration(2, route, 4096, 7.5) == 7.5
        assert all(v == 0 for v in qos.counters.values())

    def test_besteffort_is_throttled_on_reserved_links_only(self):
        _, qos = self.make()
        self.activated(qos, paths=((0, 1),), share=0.5)
        hot = qos.fabric.topology.route(0, 1)
        shaped = qos.shape_duration(3, hot, 4096, 10.0)
        assert shaped == pytest.approx(10.0 / 0.5)
        assert qos.counters["throttled_transfers"] == 1
        # A route avoiding the reserved link is untouched.
        cold = qos.fabric.topology.route(2, 3)
        if not set(cold.data_segments) & set(hot.data_segments):
            assert qos.shape_duration(2, cold, 4096, 10.0) == 10.0

    def test_reserved_is_policed_to_its_rate(self):
        _, qos = self.make()
        res = self.activated(qos, share=0.4)
        route = qos.fabric.topology.route(0, 1)
        nbytes = 1 << 20
        shaped = qos.shape_duration(0, route, nbytes, 1.0)
        assert shaped == pytest.approx(nbytes / res.rate)
        assert qos.counters["policed_transfers"] == 1
        # Small control messages (overhead-bound duration) pass untouched.
        assert qos.shape_duration(0, route, 8, 5.0) == 5.0
        assert qos.counters["policed_transfers"] == 1

    def test_release_is_idempotent_and_frees_budget(self):
        _, qos = self.make()
        res = self.activated(qos, share=0.8)  # whole budget of the route
        link = res.links[0]
        assert qos.admission.headroom(link) == pytest.approx(0.0)
        qos.release(res)
        qos.release(res)
        assert qos.counters["releases"] == 1
        assert not qos.enforcing
        assert qos.admission.headroom(link) == pytest.approx(
            qos.admission.budget(link))

    def test_denial_is_counted(self):
        _, qos = self.make()
        rate = 2.0 * qos.route_capacity(0, 1)
        with pytest.raises(AdmissionDenied):
            qos.reserve("r", [(0, 1)], rate)
        assert qos.counters["denials"] == 1
        assert qos.reservations == []

    def test_fault_ladder_revokes_then_reprovisions(self):
        """A segment unmap revokes every live reservation; reprovision
        brings it back under a bumped epoch (the scenario's ladder)."""
        plan = FaultPlan(seed=3, unmap_after=5)
        cluster, qos = self.make(n=2, faults=plan)
        res = self.activated(qos, paths=((0, 1),))

        def program(ctx):
            buf = ctx.alloc(4096)
            for _ in range(10):
                if ctx.comm.rank == 0:
                    yield from ctx.comm.send(buf, dest=1, count=4096)
                else:
                    yield from ctx.comm.recv(buf, source=0, count=4096)

        cluster.run(program)
        assert any(ev.kind == "unmap" for ev in plan.events)
        revoked = qos.sync_with_faults()
        assert revoked == [res] and res.state == ReservationState.REVOKED
        assert not qos.enforcing
        qos.reprovision(res)
        qos.activate(res)
        assert res.epoch == 1 and qos.enforcing
        assert qos.sync_with_faults() == []  # cursor advanced: no re-revoke

    def test_metrics_collector_exports_all_names(self):
        cluster, qos = self.make()
        qos.register_metrics(cluster.metrics)
        snap = cluster.metrics.snapshot()
        for name in QOS_COUNTERS:
            assert snap[f"qos.{name}"] == 0.0
        assert snap["qos.tenants"] == 1.0
        self.activated(qos, share=0.4)
        snap = cluster.metrics.snapshot()
        assert snap["qos.active_reservations"] == 1.0
        assert snap["qos.reserved_share_peak"] == pytest.approx(0.4)

    def test_instruments_route_by_lane(self):
        inst = QosInstruments.standalone()
        inst.observe(LANE_RESERVED, 10.0)
        inst.observe(LANE_BEST_EFFORT, 30.0)
        assert inst.histograms["reserved_latency_us"].count == 1
        assert inst.histograms["besteffort_latency_us"].count == 1


class TestSchedulingHooks:
    def test_resource_priority_reorders_waiters_only(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        first = resource.request(priority=5)  # free slot: granted at once
        assert first.triggered
        slow = resource.request(priority=1)
        fast = resource.request(priority=0)
        tie_a = resource.request(priority=0)
        order = []
        for name, ev in (("slow", slow), ("fast", fast), ("tie_a", tie_a)):
            ev.callbacks.append(lambda _e, n=name: order.append(n))
        for _ in range(3):
            resource.release()
            engine.run()
        assert order == ["fast", "tie_a", "slow"]

    def test_rndv_priority_default_is_exact_fifo(self):
        cluster = Cluster(n_nodes=2)
        scheduler = cluster.world.device(1).scheduler
        assert scheduler._rndv_priority(0) == 0  # no QoS manager at all
        qos = QosManager.install(cluster)
        qos.add_tenant("r", [0])
        assert scheduler._rndv_priority(0) == 0  # installed but idle

    def test_rndv_priority_ranks_reserved_ahead(self):
        cluster = Cluster(n_nodes=3)
        qos = QosManager.install(cluster)
        qos.add_tenant("r", [0])
        rate = 0.4 * qos.route_capacity(0, 2)
        res = qos.reserve("r", [(0, 2)], rate)
        qos.provision(res)
        qos.activate(res)
        scheduler = cluster.world.device(2).scheduler
        assert scheduler._rndv_priority(0) == 0
        assert scheduler._rndv_priority(1) == 1

    def test_rndv_priority_is_fifo_again_after_release(self):
        """Reserved senders rank ahead only while a reservation is
        active; releasing the last one restores exact FIFO."""
        cluster = Cluster(n_nodes=3)
        qos = QosManager.install(cluster)
        qos.add_tenant("r", [0])
        res = qos.reserve("r", [(0, 2)], 0.4 * qos.route_capacity(0, 2))
        qos.provision(res)
        qos.activate(res)
        scheduler = cluster.world.device(2).scheduler
        assert scheduler._rndv_priority(1) == 1
        qos.release(res)
        assert scheduler._rndv_priority(0) == 0
        assert scheduler._rndv_priority(1) == 0
