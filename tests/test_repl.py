"""Tests for the chain service of repro.svc: chain replication, failover, rebalancing,
and open-loop load generation.

The unit half exercises the host-side control plane (FailoverPlan's
deterministic kill, the ApplyLedger exactly-once oracle, open-loop
arrival draws; the ReplicaMap and the chain-walking store protocol are
covered per chain depth in ``tests/test_kv_store.py``).  The integration
half runs full chain-service cells and checks the driver's own oracles:
ledger + physical-tag verification, availability through a primary
kill, replay exactly-once-ness, byte-identical reports per seed, and
the open- vs. closed-loop tail-latency relationship.
"""

import json

import pytest

from repro.bench.kv import run_overload_point
from repro.mpi.flatten import reset_plan_cache
from repro.svc import (ApplyLedger, FailoverPlan, OpenLoopSpec, ReplicaMap,
                       ReplicatedServiceConfig, WorkloadSpec,
                       run_replicated_service)
from repro.svc.load import arrival_times


def small_spec(seed=1, ops=40, read_fraction=0.5, dist="uniform",
               zipf_s=1.1):
    return WorkloadSpec(n_keys=32, read_fraction=read_fraction,
                        incr_fraction=0.0, dist=dist, zipf_s=zipf_s,
                        ops_per_client=ops, value_size=32, seed=seed)


def run_cell(**overrides):
    defaults = dict(n_groups=2, replication=2, n_clients=2,
                    slots_per_shard=16, workload=small_spec())
    defaults.update(overrides)
    reset_plan_cache()
    return run_replicated_service(ReplicatedServiceConfig(**defaults))


class TestFailoverPlan:
    def test_kill_fires_once_at_threshold(self):
        rm = ReplicaMap([[0, 1], [2, 3]], slots_per_shard=8)
        plan = FailoverPlan(kill_group=0, kill_after_writes=3)
        assert plan.note_write(rm, 10.0) is None
        assert plan.note_write(rm, 20.0) is None
        assert plan.note_write(rm, 30.0) == 0
        assert plan.kill_time == 30.0
        assert plan.note_write(rm, 40.0) is None  # never re-fires
        assert rm.is_dead(0)

    def test_gap_closes_on_first_op_after_routing_out(self):
        rm = ReplicaMap([[0, 1], [2, 3]], slots_per_shard=8)
        plan = FailoverPlan(kill_group=0, kill_after_writes=1)
        plan.note_write(rm, 100.0)
        plan.note_op_done(rm, 0, 110.0)  # dead rank not routed out yet
        assert plan.recover_time is None
        rm.fail_over(0)
        plan.note_op_done(rm, 1, 115.0)  # wrong group: ignored
        assert plan.recover_time is None
        plan.note_op_done(rm, 0, 120.0)
        assert plan.recover_time == 120.0
        assert plan.gap_us(999.0) == pytest.approx(20.0)

    def test_gap_runs_to_end_when_never_recovered(self):
        rm = ReplicaMap([[0, 1]], slots_per_shard=8)
        plan = FailoverPlan(kill_group=0, kill_after_writes=1)
        assert plan.gap_us(500.0) == 0.0  # no kill yet
        plan.note_write(rm, 100.0)
        assert plan.gap_us(500.0) == pytest.approx(400.0)


class TestApplyLedger:
    def test_duplicate_tag_is_flagged(self):
        rm = ReplicaMap([[0, 1]], slots_per_shard=8)
        ledger = ApplyLedger()
        ledger.record(0, 0, 0, 11)
        ledger.record(0, 0, 1, 11)
        assert ledger.check(rm)["ok"]
        ledger.record(0, 0, 0, 11)  # the same tag applied twice: at-least-once
        out = ledger.check(rm)
        assert not out["ok"] and out["duplicates"]

    def test_diverging_replicas_are_flagged(self):
        rm = ReplicaMap([[0, 1]], slots_per_shard=8)
        ledger = ApplyLedger()
        ledger.record(0, 0, 0, 11)
        ledger.record(0, 0, 1, 12)  # backup saw a different write
        out = ledger.check(rm)
        assert not out["ok"] and out["disagreements"]

    def test_dead_replicas_are_exempt(self):
        rm = ReplicaMap([[0, 1]], slots_per_shard=8)
        ledger = ApplyLedger()
        ledger.record(0, 0, 0, 11)  # rank 1 never got the write...
        rm.mark_dead(0)             # ...but rank 0 died
        rm.fail_over(0)
        assert ledger.check(rm)["ok"]

    def test_copy_table_inherits_history(self):
        rm = ReplicaMap([[0, 1]], slots_per_shard=8)
        ledger = ApplyLedger()
        ledger.record(0, 3, 0, 21)
        ledger.copy_table(0, 0, 0, 4, slots=8)
        assert ledger.applies[(0, 3)][4] == [21]


class TestOpenLoopSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            OpenLoopSpec(mean_interarrival_us=0.0)
        with pytest.raises(ValueError):
            OpenLoopSpec(max_queue=0)

    def test_arrivals_deterministic_and_ascending(self):
        spec = OpenLoopSpec(mean_interarrival_us=25.0)
        a = arrival_times(spec, seed=1, client_id=0, n_ops=50)
        b = arrival_times(spec, seed=1, client_id=0, n_ops=50)
        assert (a == b).all()
        assert (a[1:] >= a[:-1]).all()
        other = arrival_times(spec, seed=1, client_id=1, n_ops=50)
        assert (a != other).any()


# -- configuration --------------------------------------------------------------


class TestReplicatedServiceConfig:
    def test_rank_accounting(self):
        cfg = ReplicatedServiceConfig(n_groups=2, replication=2, n_clients=3,
                                      workload=small_spec())
        assert cfg.n_servers == 4
        assert cfg.total_ranks == 7
        assert cfg.group_ranks() == [[0, 1], [2, 3]]
        with_reb = ReplicatedServiceConfig(n_groups=2, replication=2,
                                           n_clients=3,
                                           rebalance_interval_us=100.0,
                                           workload=small_spec())
        assert with_reb.total_ranks == 8  # the rebalancer rank

    def test_failover_needs_redundancy(self):
        with pytest.raises(ValueError):
            ReplicatedServiceConfig(n_groups=2, replication=1,
                                    failover=FailoverPlan(),
                                    workload=small_spec())

    def test_counters_are_rejected(self):
        with pytest.raises(ValueError, match="incr_fraction"):
            ReplicatedServiceConfig(
                n_groups=2, replication=2,
                workload=WorkloadSpec(n_keys=8, incr_fraction=0.5,
                                      ops_per_client=10))

    @pytest.mark.parametrize("bad", [
        dict(n_groups=0), dict(replication=0), dict(n_clients=0),
        dict(slots_per_shard=0), dict(tables_per_server=0),
        dict(hot_factor=1.0), dict(qos_reserve=-0.1),
    ])
    def test_bad_shapes_raise_at_construction(self, bad):
        with pytest.raises(ValueError):
            ReplicatedServiceConfig(workload=small_spec(), **bad)


# -- full cells -----------------------------------------------------------------


class TestReplicatedService:
    def test_clean_cell_verifies(self):
        report = run_cell()
        assert report["verified"], report["checks"]
        assert report["availability"] == 1.0
        assert report["chain_depth"] == 2
        assert report["epoch"] == 0
        assert report["total_ops"] == 80

    def test_report_byte_identical_per_seed(self):
        first = json.dumps(run_cell(), sort_keys=True)
        second = json.dumps(run_cell(), sort_keys=True)
        assert first == second
        assert first != json.dumps(run_cell(workload=small_spec(seed=2)),
                                   sort_keys=True)

    @pytest.mark.parametrize("seed", [1, 2, 3],
                             ids=["seed1", "seed2", "seed3"])
    def test_failover_keeps_availability_and_exactly_once(self, seed):
        report = run_cell(
            workload=small_spec(seed=seed, ops=100),
            failover=FailoverPlan(kill_group=0, kill_after_writes=20,
                                  detect_cost_us=40.0))
        assert report["verified"], report["checks"]
        assert report["checks"]["failover"]["ok"]
        assert report["availability"] >= 0.95
        assert report["failover_gap_us"] > 0
        assert report["chain_depth"] == 1  # one group lost its backup
        # Exactly-once under replay: the ledger saw no duplicate tags
        # and the surviving replicas agree.
        assert report["checks"]["ledger"]["ok"]
        assert report["checks"]["physical_tags"]["ok"]
        assert report["replay"]["replays"] <= 2  # one in-flight per client

    def test_replay_path_is_exercised(self):
        """At least one seed must drive a client through the dead-hop ->
        replay path (not just clean failover between ops)."""
        hit = []
        for seed in (1, 2, 3):
            report = run_cell(
                workload=small_spec(seed=seed, ops=100),
                failover=FailoverPlan(kill_group=0, kill_after_writes=20))
            hit.append(report["replay"]["dead_hops"] > 0
                       and report["replay"]["replays"] > 0)
        assert any(hit)

    def test_open_loop_sheds_and_reports_sojourn(self):
        report = run_cell(
            workload=small_spec(ops=80),
            open_loop=OpenLoopSpec(mean_interarrival_us=8.0, max_queue=4))
        assert report["verified"], report["checks"]
        ol = report["open_loop"]
        assert ol["enabled"]
        assert ol["arrivals"] == 160
        assert ol["served"] + ol["shed"] == ol["arrivals"]
        assert ol["shed"] > 0  # offered > capacity: backpressure fired
        # Sojourn includes queueing; it must dominate pure service time.
        assert (report["latency_us"]["sojourn"]["p99"]
                >= report["latency_us"]["service"]["p99"])

    def test_qos_lane_keeps_cell_verified(self):
        report = run_cell(qos_reserve=0.4,
                          rebalance_interval_us=150.0,
                          rebalance_max_moves=2,
                          tables_per_server=3,
                          hot_factor=1.4,
                          workload=small_spec(ops=60, dist="zipfian",
                                              zipf_s=1.5))
        assert report["verified"], report["checks"]
        assert report["qos"]["enforcing"]


class TestOverloadPoint:
    def test_open_loop_exposes_the_tail(self):
        """The bench point's own invariant: open-loop sojourn p99 at
        1.2x capacity strictly exceeds the closed-loop p99 (it raises
        otherwise).  Small op count — the full-size point runs in the
        bench-smoke lane."""
        point = run_overload_point(n_keys=1_000_000, ops_per_client=60)
        assert point.open_p99_us > point.closed_p99_us
        assert 0.0 <= point.shed_rate < 1.0
        assert point.capacity_ops > 0
