"""Scenario 6: QoS contention — two tenants overloading a shared crossbar.

The end-to-end proof of the bandwidth-reservation layer
(:mod:`repro.qos`, ``docs/QOS.md``): on a switched two-ringlet fabric
whose crossbar runs at half the ringlet link bandwidth, two four-node
tenants pump bulk rendezvous streams across the switch —

* **tenant_r** (reserved) — nodes 0/1 stream to nodes 4/5; it holds
  admitted reservations on both paths (together most of the crossbar's
  reservable budget);
* **tenant_b** (best-effort) — nodes 2/3 stream to nodes 6/7, same
  crossbar, no reservation.

Three phases run on *one* cluster, separated by barriers:

1. **contended** — both tenants stream; the reservations are admitted
   but not provisioned, so nothing is enforced and the tenants push the
   saturated crossbar deep past the SCI congestion knee, destroying
   each other's throughput;
2. **solo** — rank 0 provisions and activates the reservations, then
   tenant_r streams alone under them: its *policed* injection rate is
   the throughput the reservation promises (the SLO baseline);
3. **protected** — tenant_b resumes streaming; tenant_r stays policed
   on the reserved lane (with credit priority) while tenant_b is
   throttled on the crossbar — but never below the lanes'
   ``BESTEFFORT_FLOOR``.

The report's ``qos_checks`` are the isolation oracle: the reserved
tenant keeps ≥ 90 % of its solo (reservation-promised) throughput with
the best-effort tenant blasting the same crossbar, the contended phase
really was a fight, and best-effort keeps at least the documented floor
of its unthrottled contended throughput.  With faults
on, the cell's canonical plan injects a segment revocation and the
reservation lifecycle runs revoke -> re-provision under a bumped epoch
(``app["qos"]["reservations"]`` carries the full history).  Reports are
byte-identical per seed, faults on or off.

Headline metric: ``qos_reserved_throughput_ops`` — the reserved tenant's
protected-phase throughput (ops/s), higher is better.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..hardware.sci.faults import FaultPlan
from ..hardware.sci.topology import RingOfRings, Topology
from ..mpi.datatypes import BYTE
from ..qos import (BESTEFFORT_FLOOR, AdmissionDenied, QosInstruments,
                   QosManager)
from .base import (Scenario, ScenarioError, ScenarioInstruments,
                   ScenarioParams, register_scenario, scenario_fault_plan)

__all__ = ["QosContentionScenario"]

RINGLET_SIZE = 4
SWITCH_CAPACITY = 0.5

#: sender world rank -> receiver world rank (every pair crosses the switch).
SENDER_PEER = {0: 4, 1: 5, 2: 6, 3: 7}

RESERVED_NODES = frozenset({0, 1, 4, 5})
BESTEFFORT_NODES = frozenset({2, 3, 6, 7})

#: Fraction of the bottleneck (crossbar) capacity reserved per path; two
#: paths share the cross links, so the active reserved share is twice
#: this — landing *exactly* on the admission budget (``MAX_SHARE`` =
#: 0.8), which the inclusive boundary admits.
SHARE_PER_PATH = 0.4

#: One bulk message (rendezvous-sized: streams in 64 KiB chunks).
MSG_BYTES = 96 * 1024

#: Simulated cost of (re-)provisioning one reservation's data plane.
PROVISION_COST_US = 25.0

#: Segment accesses before the faulty cell's one-shot revocation.  The
#: canonical matrix plan revokes after 400 accesses — beyond this
#: workload's whole access budget — so the cell pulls the revocation
#: forward to land while the reservations are live, driving the
#: revoke -> re-provision ladder the cell exists to prove.
UNMAP_AFTER = 60

PHASES = ("contended", "solo", "protected")


@register_scenario
class QosContentionScenario(Scenario):
    name = "qos_contention"
    description = ("two tenants overloading a shared crossbar: bandwidth "
                   "reservations isolate the reserved tenant while "
                   "best-effort keeps its documented floor")
    default_ranks = 2 * RINGLET_SIZE
    default_steps = 8  # bulk sends per sender per phase
    headline_metric = "qos_reserved_throughput_ops"

    def _shape(self, params: ScenarioParams) -> tuple[int, int]:
        n_ranks = self.n_ranks(params)
        if n_ranks != 2 * RINGLET_SIZE:
            raise ScenarioError(
                f"qos_contention runs on exactly {2 * RINGLET_SIZE} ranks "
                f"(two {RINGLET_SIZE}-node ringlets), got {n_ranks}"
            )
        ops = max(2, int(round(self.n_steps(params) * params.scale)))
        return n_ranks, ops

    def topology(self, params: ScenarioParams) -> Topology:
        n_ranks, _ = self._shape(params)
        return RingOfRings(n_ranks // RINGLET_SIZE, RINGLET_SIZE,
                           switch_capacity=SWITCH_CAPACITY)

    def fault_plan(self, params: ScenarioParams) -> FaultPlan:
        plan = scenario_fault_plan(self.name, params.seed)
        return FaultPlan(
            seed=plan.seed, transient_rate=plan.transient_rate,
            torn_rate=plan.torn_rate, stall_rate=plan.stall_rate,
            stall_time=plan.stall_time, unmap_after=UNMAP_AFTER,
        )

    def resolve(self, params: ScenarioParams) -> dict:
        n_ranks, ops = self._shape(params)
        return {
            "msg_bytes": MSG_BYTES,
            "ops_per_sender": ops,
            "phases": list(PHASES),
            "resolved_ranks": n_ranks,
            "share_per_path": SHARE_PER_PATH,
            "topology": self.topology(params).describe(),
        }

    def run(self, cluster, params: ScenarioParams,
            inst: ScenarioInstruments) -> dict:
        n_ranks, ops = self._shape(params)
        manager = QosManager.install(cluster)
        manager.register_metrics(cluster.metrics)
        qos_inst = QosInstruments.registered(cluster.metrics)
        manager.add_tenant("tenant_r", RESERVED_NODES)
        manager.add_tenant("tenant_b", BESTEFFORT_NODES)

        # Admission: one reservation per reserved path, sized off the
        # bottleneck capacity; then one oversized request that must be
        # denied — the end-to-end exact-budget evidence.
        reservations = []
        for src, dst in ((0, 4), (1, 5)):
            rate = SHARE_PER_PATH * manager.route_capacity(src, dst)
            reservations.append(manager.reserve("tenant_r", [(src, dst)], rate))
        denial = None
        try:
            manager.reserve("tenant_r", [(0, 4)],
                            manager.route_capacity(0, 4))
        except AdmissionDenied as exc:
            denial = exc.decision.describe()

        lane_of = {rank: ("reserved" if rank in RESERVED_NODES
                          else "best_effort")
                   for rank in range(n_ranks)}
        fill = {(sender, op): (sender * 41 + op * 7) % 251
                for sender in SENDER_PEER for op in range(ops)}
        engine = cluster.engine
        faults_on = params.faults
        bad_payloads: list[dict] = []

        def participates(rank: int, phase: str) -> bool:
            if phase == "solo":
                return rank in RESERVED_NODES
            return True

        def program(ctx):
            comm = ctx.comm
            rank = comm.rank
            is_sender = rank in SENDER_PEER
            peer = (SENDER_PEER.get(rank)
                    or next(s for s, r in SENDER_PEER.items() if r == rank))
            buf = ctx.alloc(MSG_BYTES)
            lat: dict[str, list[float]] = {p: [] for p in PHASES}
            elapsed: dict[str, float] = {}

            for pi, phase in enumerate(PHASES):
                yield from comm.barrier()
                if phase == "solo" and rank == 0:
                    for res in reservations:
                        yield engine.timeout(PROVISION_COST_US)
                        manager.provision(res)
                        manager.activate(res)
                yield from comm.barrier()
                span = (inst.step(ctx, pi, record=True)
                        if rank == 0 else nullcontext())
                with span:
                    t0 = ctx.now
                    if participates(rank, phase):
                        for op in range(ops):
                            if is_sender:
                                buf.read()[:] = fill[(rank, op)]
                                o0 = ctx.now
                                yield from comm.send(buf, dest=peer,
                                                     datatype=BYTE,
                                                     count=MSG_BYTES)
                                lat[phase].append(ctx.now - o0)
                                inst.payload(MSG_BYTES)
                                inst.ops()
                                if phase == "protected":
                                    qos_inst.observe(lane_of[rank],
                                                     ctx.now - o0)
                                if phase != "contended" and rank == 0:
                                    for res in manager.sync_with_faults():
                                        yield engine.timeout(
                                            PROVISION_COST_US)
                                        manager.reprovision(res)
                                        manager.activate(res)
                            else:
                                yield from comm.recv(buf, source=peer,
                                                     datatype=BYTE,
                                                     count=MSG_BYTES)
                                data = buf.read()
                                if not np.all(data == fill[(peer, op)]):
                                    bad_payloads.append(
                                        {"op": op, "phase": phase,
                                         "rank": rank})
                    elapsed[phase] = ctx.now - t0
                yield from comm.barrier()

            if rank == 0:
                for res in reservations:
                    manager.release(res)
                    manager.release(res)  # idempotent by contract
            return {"rank": rank, "lane": lane_of[rank],
                    "sender": is_sender, "lat": lat, "elapsed": elapsed}

        run = cluster.run(program)
        senders = [r for r in run.results if r["sender"]]

        def throughput(lane: str, phase: str) -> float:
            times = [r["elapsed"][phase] for r in senders
                     if r["lane"] == lane and r["lat"][phase]]
            total_ops = sum(len(r["lat"][phase]) for r in senders
                            if r["lane"] == lane)
            if not times or not total_ops:
                return 0.0
            return total_ops / max(times) * 1e6

        def p99(lane: str, phase: str) -> float:
            samples = [v for r in senders if r["lane"] == lane
                       for v in r["lat"][phase]]
            return float(np.percentile(samples, 99)) if samples else 0.0

        iso = {
            "besteffort_contended_ops_per_sec": throughput("best_effort",
                                                           "contended"),
            "besteffort_p99_contended_us": p99("best_effort", "contended"),
            "besteffort_p99_us": p99("best_effort", "protected"),
            "besteffort_protected_ops_per_sec": throughput("best_effort",
                                                           "protected"),
            "reserved_contended_ops_per_sec": throughput("reserved",
                                                         "contended"),
            "reserved_p99_protected_us": p99("reserved", "protected"),
            "reserved_protected_ops_per_sec": throughput("reserved",
                                                         "protected"),
            "reserved_solo_ops_per_sec": throughput("reserved", "solo"),
        }
        iso["besteffort_floor_ratio"] = (
            iso["besteffort_protected_ops_per_sec"]
            / iso["besteffort_contended_ops_per_sec"]
            if iso["besteffort_contended_ops_per_sec"] else 0.0)
        iso["reserved_isolation_ratio"] = (
            iso["reserved_protected_ops_per_sec"]
            / iso["reserved_solo_ops_per_sec"]
            if iso["reserved_solo_ops_per_sec"] else 0.0)

        checks = {
            "besteffort_floor": {
                # The documented starvation bound: throttling scales the
                # injection rate by >= BESTEFFORT_FLOOR, and the
                # protected phase's total offered load is lower than the
                # contended phase's, so delivered best-effort throughput
                # keeps at least the floor fraction of its unthrottled
                # contended throughput.
                "floor": BESTEFFORT_FLOOR,
                "ok": iso["besteffort_floor_ratio"] >= BESTEFFORT_FLOOR,
                "ratio": iso["besteffort_floor_ratio"],
            },
            "contention_hurts": {
                # Evidence the contended phase saturates the crossbar:
                # without enforcement the reserved tenant loses a solid
                # chunk of its solo throughput.
                "ok": (iso["reserved_contended_ops_per_sec"]
                       < 0.95 * iso["reserved_solo_ops_per_sec"]),
                "ratio": (iso["reserved_contended_ops_per_sec"]
                          / iso["reserved_solo_ops_per_sec"]
                          if iso["reserved_solo_ops_per_sec"] else 0.0),
            },
            "reserved_isolation": {
                "ok": iso["reserved_isolation_ratio"] >= 0.90,
                "ratio": iso["reserved_isolation_ratio"],
            },
        }
        if faults_on:
            checks["revocation_ladder"] = {
                # The canonical plan's segment revocation must have torn
                # down the active reservations, and the program must have
                # brought them back under a bumped epoch.
                "ok": (manager.counters["revocations"] >= 1
                       and manager.counters["reprovisions"]
                       == manager.counters["revocations"]),
                "reprovisions": manager.counters["reprovisions"],
                "revocations": manager.counters["revocations"],
            }

        data_ok = not bad_payloads
        checks_ok = all(c["ok"] for c in checks.values())
        return {
            "admission_denial": denial,
            "bad_payloads": bad_payloads,
            "isolation": iso,
            "qos": manager.describe(),
            "qos_checks": checks,
            "verified": data_ok and checks_ok and denial is not None,
        }

    def headline_value(self, app: dict, snapshot: dict,
                       elapsed_us: float) -> float:
        return app["isolation"]["reserved_protected_ops_per_sec"]
