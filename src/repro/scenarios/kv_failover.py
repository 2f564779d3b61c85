"""Scenario: replicated KV service surviving a primary kill mid-workload.

Two replica groups (chain depth 2) serve a seeded mixed read/write
workload from two clients; after a fixed number of completed chain
writes the hot group's primary rank is killed.  The next client op that
routes to it pays the failure-detector timeout, fails the chain over to
the backup and replays its in-flight write — tag-deduped, so the apply
stays exactly-once.  The cell's oracle is structural:

* the :class:`~repro.svc.failover.ApplyLedger` version-vector check — no
  tag applied twice to any replica, every live chain member holds the
  same per-slot apply sequence, and the physical tag words in the
  window memory match the ledger tails;
* the failover actually happened (kill fired, exactly one
  reconfiguration, gap closed);
* availability through the kill stays >= ``MIN_AVAILABILITY``.

The headline gauge is that availability (``kv_failover_availability``,
higher is better); the faulty variant layers the canonical wire-level
fault plan on top of the kill, proving recovery and failover compose.
"""

from __future__ import annotations

from ..cluster import Cluster
from ..svc import (FailoverPlan, ReplicatedServiceConfig, WorkloadSpec,
                   execute_service)
from .base import (Scenario, ScenarioInstruments, ScenarioParams,
                   register_scenario)

__all__ = ["KvFailoverScenario", "MIN_AVAILABILITY"]

#: The acceptance floor: availability through the primary kill.
MIN_AVAILABILITY = 0.95

_N_GROUPS = 2
_REPLICATION = 2
_N_CLIENTS = 2
_SLOTS_PER_SHARD = 32
_VALUE_SIZE = 32
_READ_FRACTION = 0.5
_DETECT_COST_US = 40.0
#: The kill fires after this fraction of the expected chain writes.
_KILL_FRACTION = 0.4


def _shape(params: ScenarioParams) -> tuple[WorkloadSpec, FailoverPlan]:
    steps = params.steps or KvFailoverScenario.default_steps
    n_keys = max(16, int(64 * params.scale))
    spec = WorkloadSpec(
        n_keys=n_keys, read_fraction=_READ_FRACTION, incr_fraction=0.0,
        dist="uniform", ops_per_client=steps, value_size=_VALUE_SIZE,
        seed=params.seed,
    )
    expected_writes = _N_CLIENTS * steps * (1.0 - _READ_FRACTION)
    plan = FailoverPlan(
        kill_group=0,
        kill_after_writes=max(6, int(_KILL_FRACTION * expected_writes)),
        detect_cost_us=_DETECT_COST_US,
    )
    return spec, plan


@register_scenario
class KvFailoverScenario(Scenario):
    """Replicated KV store under a seeded primary kill."""

    name = "kv_failover"
    description = ("chain-replicated KV service losing a primary "
                   "mid-workload: failover, exactly-once replay, "
                   "availability gap")
    default_ranks = _N_GROUPS * _REPLICATION + _N_CLIENTS
    # Long enough that the fixed-cost failover gap (detector timeout +
    # replay) amortises above MIN_AVAILABILITY with margin.
    default_steps = 100
    headline_metric = "kv_failover_availability"

    def n_ranks(self, params: ScenarioParams) -> int:
        # The rank split (servers vs clients) is fixed by the chain
        # shape; the matrix varies steps/scale/seed instead.
        return self.default_ranks

    def resolve(self, params: ScenarioParams) -> dict:
        spec, plan = _shape(params)
        return {
            "n_groups": _N_GROUPS,
            "replication": _REPLICATION,
            "n_clients": _N_CLIENTS,
            "n_keys": spec.n_keys,
            "ops_per_client": spec.ops_per_client,
            "value_size": spec.value_size,
            "kill_after_writes": plan.kill_after_writes,
            "detect_cost_us": plan.detect_cost_us,
        }

    def run(self, cluster: Cluster, params: ScenarioParams,
            inst: ScenarioInstruments) -> dict:
        spec, plan = _shape(params)
        config = ReplicatedServiceConfig(
            n_groups=_N_GROUPS, replication=_REPLICATION,
            n_clients=_N_CLIENTS, slots_per_shard=_SLOTS_PER_SHARD,
            failover=plan, workload=spec,
        )
        report = execute_service(cluster, config, scenario_inst=inst)
        checks = {
            "exactly_once": {
                "ok": report["checks"]["ledger"]["ok"],
                "duplicates": len(
                    report["checks"]["ledger"]["duplicates"]),
                "disagreements": len(
                    report["checks"]["ledger"]["disagreements"]),
            },
            "physical_tags": {
                "ok": report["checks"]["physical_tags"]["ok"],
                "mismatches": len(
                    report["checks"]["physical_tags"]["mismatches"]),
            },
            "failover_happened": report["checks"]["failover"],
            "availability_floor": {
                "ok": report["availability"] >= MIN_AVAILABILITY,
                "availability": report["availability"],
                "floor": MIN_AVAILABILITY,
            },
            "replay_bounded": {
                # Lost-ack replay is bounded by the in-flight window:
                # at most one write per client can be in flight.
                "ok": report["replay"]["replays"] <= _N_CLIENTS,
                "replays": report["replay"]["replays"],
                "bound": _N_CLIENTS,
            },
        }
        return {
            "availability": report["availability"],
            "failover_gap_us": report["failover_gap_us"],
            "chain_depth": report["chain_depth"],
            "epoch": report["epoch"],
            "total_ops": report["total_ops"],
            "replay": report["replay"],
            "latency_us": {
                "read_p99": report["latency_us"]["read"]["p99"],
                "write_p99": report["latency_us"]["write"]["p99"],
            },
            "state_digests": report["state_digests"],
            "checks": checks,
            "verified": all(c["ok"] for c in checks.values()),
        }

    def headline_value(self, app: dict, snapshot: dict,
                       elapsed_us: float) -> float:
        return app["availability"]
