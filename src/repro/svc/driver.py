"""The service driver: client ranks against passive, chained server tables.

:func:`execute_service` is the one driver body.  It lays the config's
replica chains over the first ``n_servers`` ranks' window parts, runs
every client's seeded op stream through a
:class:`~repro.svc.store.KvStore` — closed loop (issue on completion)
or, with an :class:`~repro.svc.load.OpenLoopSpec`, open loop — and
returns one flat, JSON-ready report.  Everything quantitative in the
report — throughput, latency percentiles, fault counts — is read out of
the cluster's :class:`~repro.obs.MetricsRegistry` snapshot, so the
service numbers and the observability layer cannot drift apart.

Two public entry points build the cluster and call it:

* :func:`run_service` (:class:`ServiceConfig`) — the plain service: a
  flat server list, i.e. chains of depth 1, 16-byte slot headers,
  integer counters, ``svc.*`` metric names.  Verified by the counter
  oracle: increments commute, so the final counter values are exact
  under any interleaving; after the workload the first client reads
  every counter back and compares against the host-side
  :func:`~repro.svc.workload.replay`.
* :func:`run_replicated_service` (:class:`ReplicatedServiceConfig`) —
  the chain service: ``n_groups`` chains of ``replication`` ranks,
  tagged writes (24-byte headers), optional failover, rebalancer rank
  and open loop, ``repl.*`` metric names.  Verified structurally: the
  :class:`~repro.svc.failover.ApplyLedger` asserts **exactly-once
  apply** (no tag applied twice to any replica, every live chain member
  holds the same per-slot apply sequence), the final *physical* tag
  words in each server's window part must equal the ledger tails, and
  ``state_digests`` fingerprints each shard's serving table for the
  migration determinism tests.

``report["verified"]`` is the headline result of either.

Determinism: the simulation is a DES and the workload is seeded, so the
whole report — timings included — is bit-identical for a given
(config, policy, fault plan) triple, failover and rebalancing included
— the kill fires on a write count, not a time.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..cluster import Cluster
from ..hardware.sci.faults import FaultPlan
from ..mpi.transport.policy import TransferPolicy
from .failover import ApplyLedger, FailoverPlan
from .load import (OpenLoopSpec, arrival_times, closed_loop_client,
                   open_loop_client)
from .rebalance import Rebalancer
from .shard import ReplicaMap
from .store import (TAG_OFF, KvStore, ReplInstruments, SvcInstruments,
                    slot_bytes)
from .workload import WorkloadSpec, client_ops, replay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scenarios.base import ScenarioInstruments

__all__ = ["ReplicatedServiceConfig", "ServiceConfig", "execute_service",
           "run_replicated_service", "run_service",
           "REPL_COLLECTOR_METRICS", "SVC_COLLECTOR_METRICS"]

#: Shard-load metrics the plain service pulls from its placement map.
SVC_COLLECTOR_METRICS = ("svc.shard_ops", "svc.hot_shards",
                         "svc.shard_imbalance")

#: Availability/routing gauges the chain service pulls at snapshot time.
REPL_COLLECTOR_METRICS = ("repl.availability", "repl.chain_depth",
                          "repl.epoch", "repl.failover_gap_us")


def _placement(config) -> ReplicaMap:
    return ReplicaMap(config.group_ranks(), config.slots_per_shard,
                      counter_slots=config.counter_slots,
                      tables_per_server=config.tables_per_server,
                      hot_factor=config.hot_factor)


def _check_shape(config) -> None:
    """Reject a bad shape at the boundary, before any cluster exists."""
    if config.n_clients < 1:
        raise ValueError("need at least one client rank")
    if not 0.0 <= config.qos_reserve < 1.0:
        raise ValueError(f"qos_reserve {config.qos_reserve} outside [0, 1)")
    # The placement map owns the table-shape rules (slots, counter
    # slots, tables per server, hot factor): build one to apply them.
    _placement(config)
    depth = max(len(chain) for chain in config.group_ranks())
    if config.workload.incr_fraction > 0.0 and (
            config.counter_slots == 0 or depth > 1):
        raise ValueError(
            "incr_fraction > 0 needs counter slots and chains of depth 1 "
            "(counters are not replicated; the chain service serves "
            "blobs only)")


def _describe(config) -> dict:
    """JSON-ready dump of every config field but the workload (which
    the report carries separately)."""
    out = {}
    for spec in fields(config):
        value = getattr(config, spec.name)
        if spec.name != "workload":
            out[spec.name] = (value.describe() if hasattr(value, "describe")
                              else value)
    return out


@dataclass(frozen=True)
class ServiceConfig:
    """Shape of the plain service (the workload is separate)."""

    n_servers: int = 2
    n_clients: int = 2
    slots_per_shard: int = 64
    counter_slots: int = 16
    hot_factor: float = 2.0
    #: > 0 installs a :class:`~repro.qos.QosManager` and admits one
    #: reservation for the service tenant over every client -> server
    #: path, at this fraction of the tightest path's capacity.  Clients
    #: run reserved-lane (policed to that rate, rendezvous credit
    #: priority); 0 leaves the fabric QoS-free.
    qos_reserve: float = 0.0
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)

    # What the driver body reads off a ReplicatedServiceConfig, pinned:
    # a flat server list is untagged chains of depth 1, one table each,
    # with no failover or open loop (and no rebalancer rank).
    tagged = False
    tables_per_server = 1
    failover = None
    open_loop = None

    def __post_init__(self):
        if self.n_servers < 1:
            raise ValueError("need at least one server rank")
        _check_shape(self)

    @property
    def total_ranks(self) -> int:
        return self.n_servers + self.n_clients

    def group_ranks(self) -> list[list[int]]:
        return [[rank] for rank in range(self.n_servers)]

    describe = _describe


@dataclass(frozen=True)
class ReplicatedServiceConfig:
    """Shape of one chain-service run (JSON-friendly)."""

    n_groups: int = 2
    replication: int = 2
    n_clients: int = 2
    slots_per_shard: int = 64
    tables_per_server: int = 2
    hot_factor: float = 2.0
    #: > 0 reserves this fraction of the tightest client->server path
    #: for the serving tenant; the rebalancer rank stays outside the
    #: tenant, so migration traffic rides the best-effort lane.
    qos_reserve: float = 0.0
    #: > 0 adds a rebalancer rank polling hot-shard evidence this often.
    rebalance_interval_us: float = 0.0
    rebalance_max_moves: int = 4
    #: Imbalance ratio that triggers a key-range split instead of a
    #: move (None = moves only; required by the determinism oracle).
    split_hot_imbalance: Optional[float] = None
    failover: Optional[FailoverPlan] = None
    open_loop: Optional[OpenLoopSpec] = None
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)

    # Chain stores always carry write tags and serve blobs only.
    tagged = True
    counter_slots = 0

    def __post_init__(self):
        if self.n_groups < 1 or self.replication < 1:
            raise ValueError("need >= 1 group and replica")
        if self.failover is not None and self.replication < 2:
            raise ValueError("failover needs replication >= 2")
        _check_shape(self)

    @property
    def n_servers(self) -> int:
        return self.n_groups * self.replication

    @property
    def total_ranks(self) -> int:
        return (self.n_servers + self.n_clients
                + (1 if self.rebalance_interval_us > 0.0 else 0))

    def group_ranks(self) -> list[list[int]]:
        return [[g * self.replication + r for r in range(self.replication)]
                for g in range(self.n_groups)]

    describe = _describe


def _reserve_qos(cluster: Cluster, n_servers: int, n_clients: int,
                 share: float):
    """Admit one reservation for the serving tenant over every
    client -> server path, at ``share`` of the tightest path."""
    from ..qos import QosManager

    qos = QosManager.install(cluster)
    qos.register_metrics(cluster.metrics)
    # The serving tenant covers servers + clients only: a rebalancer
    # rank stays best-effort by construction.
    qos.add_tenant("svc", range(n_servers + n_clients))
    paths = [(client, server)
             for client in range(n_servers, n_servers + n_clients)
             for server in range(n_servers)]
    rate = share * min(
        qos.route_capacity(client, server) for client, server in paths)
    reservation = qos.reserve("svc", paths, rate)  # may raise AdmissionDenied
    qos.provision(reservation)
    qos.activate(reservation)
    return qos


def _register_collector(registry, engine, replicas: ReplicaMap,
                        plan: Optional[FailoverPlan], tagged: bool) -> None:
    """The driver's own gauges.  Collectors read live objects lazily, so
    registering before the run keeps snapshot-time values final."""
    if not tagged:
        registry.register_collector(
            list(SVC_COLLECTOR_METRICS),
            lambda: {
                "svc.shard_ops": replicas.total_ops(),
                "svc.hot_shards": len(replicas.hot_shards()),
                "svc.shard_imbalance": replicas.imbalance(),
            },
        )
        return

    def collect_repl():
        now = engine.now
        gap = plan.gap_us(now) if plan is not None else 0.0
        return {
            "repl.availability": 1.0 - (gap / now if now > 0.0 else 0.0),
            "repl.chain_depth": replicas.chain_depth(),
            "repl.epoch": replicas.epoch,
            "repl.failover_gap_us": gap,
        }

    registry.register_collector(list(REPL_COLLECTOR_METRICS), collect_repl)


def _physical_check(replicas: ReplicaMap, tables: dict[int, np.ndarray],
                    ledger: ApplyLedger, slot_size: int,
                    table_span: int) -> dict:
    """Final tag words in the real window memory == the ledger tails."""
    mismatches: list[dict] = []
    for (shard, slot), by_rank in sorted(ledger.applies.items()):
        for placement in replicas.live_chain(shard):
            tags = by_rank.get(placement.rank)
            if not tags:
                continue  # a missing sequence is flagged by ledger.check
            base = placement.table * table_span + slot * slot_size
            actual = int.from_bytes(
                tables[placement.rank][base + TAG_OFF:
                                       base + TAG_OFF + 8].tobytes(),
                "little")
            if actual != tags[-1]:
                mismatches.append({
                    "shard": shard, "slot": slot, "rank": placement.rank,
                    "expected": tags[-1], "actual": actual,
                })
    return {"ok": not mismatches, "mismatches": mismatches}


def _state_digests(replicas: ReplicaMap, tables: dict[int, np.ndarray],
                   table_span: int) -> dict[str, str]:
    """crc32 fingerprint of each shard's *serving* (head) table."""
    digests = {}
    for shard in range(replicas.n_shards):
        head = replicas.live_chain(shard)[0]
        view = tables[head.rank][head.table * table_span:
                                 (head.table + 1) * table_span]
        digests[str(shard)] = f"{zlib.crc32(view.tobytes()):08x}"
    return digests


def execute_service(cluster: Cluster, config,
                    scenario_inst: Optional["ScenarioInstruments"] = None,
                    ) -> dict:
    """Drive an existing cluster with either config; returns the report.

    ``scenario_inst`` (the scenario entry point) additionally receives
    the store's payload bytes, one ``ops()`` per served op and step
    spans around the first client's ops.
    """
    if cluster.n_ranks != config.total_ranks:
        raise ValueError(f"config needs {config.total_ranks} ranks, "
                         f"cluster has {cluster.n_ranks}")
    spec = config.workload
    tagged = config.tagged
    n_servers, n_clients = config.n_servers, config.n_clients
    registry = cluster.metrics
    replicas = _placement(config)
    # A state-free plan copy, so re-running a config stays byte-identical.
    plan = (None if config.failover is None
            else FailoverPlan(**config.failover.describe()))
    ledger = ApplyLedger() if tagged else None
    inst = (ReplInstruments if tagged else SvcInstruments).registered(registry)
    ns = inst.prefix
    slot_size = slot_bytes(spec.value_size, tagged)
    table_span = config.slots_per_shard * slot_size
    # The chain service always has a rebalancer (it owns the copy
    # accounting); a rank runs it only when an interval is configured.
    rebalancer = None
    if tagged:
        rebalancer = Rebalancer(
            replicas, spec.value_size, ledger=ledger,
            interval_us=config.rebalance_interval_us,
            max_moves=config.rebalance_max_moves,
            split_hot_imbalance=config.split_hot_imbalance)
    qos = (_reserve_qos(cluster, n_servers, n_clients, config.qos_reserve)
           if config.qos_reserve > 0.0 else None)

    streams = [client_ops(spec, cid,
                          max_counter_keys=replicas.max_counter_keys)
               for cid in range(n_clients)]
    expected = replay(streams)
    stop = {"done": False, "finished": 0}
    tables: dict[int, np.ndarray] = {}
    mismatches: list[dict] = []
    on_payload = scenario_inst.payload if scenario_inst is not None else None

    def client_body(ctx, store, cid):
        ops = streams[cid]
        if config.open_loop is not None:
            arrivals = arrival_times(config.open_loop, spec.seed, cid,
                                     len(ops))
            result = yield from open_loop_client(
                store, ops, arrivals, config.open_loop.max_queue)
            if scenario_inst is not None:
                scenario_inst.ops(result[0])
        else:
            marks = scenario_inst is not None
            result = yield from closed_loop_client(
                store, ops, spec.think_time,
                # Step spans on the first client only: steps stay exact.
                span=((lambda index: scenario_inst.step(ctx, index))
                      if marks and cid == 0 else None),
                on_done=(lambda op: scenario_inst.ops()) if marks else None)
        stop["finished"] += 1
        stop["done"] = stop["finished"] == n_clients
        return result  # (served, shed)

    def program(ctx):
        rank = ctx.comm.rank
        is_server = rank < n_servers
        # Servers expose their slot tables; the other ranks expose a
        # token part (window creation is collective).
        size = config.tables_per_server * table_span if is_server else 8
        win = yield from ctx.comm.win_create(size, shared=True)
        if is_server:
            win.local_view()[:] = 0
        yield from win.fence()
        result = (0, 0)
        cid = rank - n_servers
        if 0 <= cid < n_clients:
            store = KvStore(win, replicas, spec.value_size, instruments=inst,
                            client_id=cid if tagged else None, plan=plan,
                            ledger=ledger, on_payload=on_payload)
            result = yield from client_body(ctx, store, cid)
        elif rank >= n_servers + n_clients:  # the rebalancer rank
            yield from rebalancer.run(win, stop)
        yield from win.fence()
        if cid == 0:  # first client verifies the counter oracle
            mismatches.extend((yield from store.check_counters(expected)))
        if is_server and tagged:
            tables[rank] = np.array(win.local_view(), dtype=np.uint8,
                                    copy=True)
        yield from win.fence()
        return result

    _register_collector(registry, cluster.engine, replicas, plan, tagged)
    if rebalancer is not None:
        rebalancer.register_metrics(registry)
    run = cluster.run(program)
    served = sum(r[0] for r in run.results)
    shed = sum(r[1] for r in run.results)
    snap = registry.snapshot()
    elapsed = run.elapsed

    def latency(kind: str) -> dict:
        prefix = f"{ns}.{kind}_latency_us"
        return {field: snap[f"{prefix}.{field}"]
                for field in ("count", "mean", "p50", "p95", "p99")}

    if tagged:
        checks = {
            "ledger": ledger.check(replicas),
            "physical_tags": _physical_check(replicas, tables, ledger,
                                             slot_size, table_span),
        }
        if plan is not None:
            checks["failover"] = {
                "ok": (plan.kill_time is not None
                       and plan.recover_time is not None
                       and snap["repl.failovers"] == 1),
                "kill_fired": plan.kill_time is not None,
                "recovered": plan.recover_time is not None,
                "failovers": snap["repl.failovers"],
            }
        kinds = ("read", "write", "service", "sojourn")
        verification = {
            **{key: snap[f"repl.{key}"] for key in (
                "availability", "failover_gap_us", "chain_depth", "epoch")},
            "rebalance": {key: snap[f"rebalance.{key}"] for key in (
                "migrations", "splits", "migrated_bytes", "blocked_ops",
                "drained_ops", "epoch_flips")},
            "open_loop": {
                "enabled": config.open_loop is not None,
                "arrivals": snap["repl.arrivals"],
                "served": served,
                "shed": shed,
                "shed_rate": (shed / snap["repl.arrivals"]
                              if snap["repl.arrivals"] else 0.0),
            },
            "replay": {key: snap[f"repl.{key}"] for key in (
                "replays", "replay_skips", "dead_hops")},
            "state_digests": _state_digests(replicas, tables, table_span),
            "checks": checks,
            "verified": all(c["ok"] for c in checks.values()),
        }
    else:
        kinds = ("read", "write", "incr")
        verification = {
            "verified": not mismatches,
            "counter_mismatches": mismatches,
            "counters_checked": len(expected),
            "shards": {
                "ops": snap["svc.shard_ops"],
                "hot": snap["svc.hot_shards"],
                "imbalance": snap["svc.shard_imbalance"],
            },
        }
    return {
        "service": config.describe(),
        "workload": spec.describe(),
        "total_ops": served,
        "elapsed_us": elapsed,
        "throughput_ops": served / elapsed * 1e6 if elapsed else 0.0,
        "latency_us": {kind: latency(kind) for kind in kinds},
        **verification,
        "faults": {
            "injected": snap["faults.injected"],
            "fallbacks": snap["recovery.fallbacks"],
        },
        **({"qos": {**qos.describe(), "enforcing": qos.enforcing}}
           if qos is not None else {}),
        "metrics": snap,
    }


def run_service(config: ServiceConfig,
                policy: Optional[TransferPolicy] = None,
                faults: Optional[FaultPlan] = None) -> dict:
    """Run the plain service once; returns the JSON-ready report."""
    cluster = Cluster(n_nodes=config.total_ranks, policy=policy,
                      faults=faults)
    return execute_service(cluster, config)


def run_replicated_service(config: ReplicatedServiceConfig,
                           policy: Optional[TransferPolicy] = None,
                           faults: Optional[FaultPlan] = None) -> dict:
    """Run the chain service once; returns the JSON-ready report."""
    cluster = Cluster(n_nodes=config.total_ranks, policy=policy,
                      faults=faults)
    return execute_service(cluster, config)
