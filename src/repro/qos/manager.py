"""QosManager: reservations, enforcement and observability for one fabric.

The manager is the single object the rest of the system talks to:

* **tenants** — named sets of nodes.  A tenant holding an ACTIVE
  reservation is *reserved-lane*; every other node is best-effort.
* **lifecycle** — :meth:`reserve` runs admission over the topology's
  routes and returns a RESERVED :class:`Reservation`; :meth:`provision`
  / :meth:`activate` / :meth:`release` drive the state machine, and
  :meth:`sync_with_faults` consumes the fault plan's ``unmap`` replay
  log, revoking live reservations (the fault ladder); :meth:`reprovision`
  brings a revoked reservation back under a new epoch.
* **enforcement** — the fabric calls :meth:`shape_duration` on every
  wire operation.  While at least one reservation is ACTIVE, best-effort
  transfers crossing a link with active reserved share are slowed by the
  lanes' throttle factor (never below ``BESTEFFORT_FLOOR``), and
  reserved-lane transfers are *policed* down to their reservation's rate
  — the admission budget (``MAX_SHARE``, sitting below the SCI
  congestion knee) only protects the fabric if admitted tenants cannot
  overdrive their promise.  With no ACTIVE reservation the hook is the
  identity and counts nothing, so an installed-but-idle manager is
  behaviour-neutral.
* **observability** — ``qos.*`` counters/gauges via
  :meth:`register_metrics`, per-op latency histograms via
  :class:`QosInstruments`, and per-tenant Perfetto tracks: lifecycle
  transitions are recorded as instant events under :data:`TENANT_RANK`
  with a ``tenant`` detail (see :mod:`repro.obs.timeline`).

Everything is deterministic: state changes happen at well-defined points
of the (already deterministic) DES program, and fault syncing replays
the seeded plan's event log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..hardware.sci.faults import FaultKind
from ..obs.metrics import Instruments
from .admission import AdmissionController, AdmissionDenied
from .lanes import (BESTEFFORT_FLOOR, LANE_BEST_EFFORT, LANE_RESERVED,
                    MAX_SHARE, throttle_factor)
from .reservation import Reservation, ReservationState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.builder import Cluster
    from ..hardware.sci.fabric import SCIFabric
    from ..hardware.sci.topology import Route
    from ..obs.metrics import MetricsRegistry

__all__ = [
    "QOS_COUNTERS",
    "QOS_GAUGES",
    "QOS_HISTOGRAMS",
    "QosInstruments",
    "QosManager",
    "TENANT_RANK",
]

#: Pseudo-rank under which per-tenant QoS trace events are recorded; the
#: timeline exporter routes these to per-tenant tracks (cf. the fabric's
#: per-ringlet ``FABRIC_RANK = -1``).
TENANT_RANK = -2

#: ``qos.*`` counter names exported by :meth:`QosManager.register_metrics`.
QOS_COUNTERS = (
    "reservations", "denials", "provisions", "activations", "releases",
    "revocations", "reprovisions", "reserved_transfers",
    "besteffort_transfers", "throttled_transfers", "policed_transfers",
)

#: ``qos.*`` gauge names computed by the same collector.
QOS_GAUGES = ("active_reservations", "reserved_share_peak", "tenants")

#: ``qos.*`` Histogram names (each expands to eight derived keys).
QOS_HISTOGRAMS = ("reserved_latency_us", "besteffort_latency_us")


class QosInstruments(Instruments):
    """The per-lane latency histograms scenario programs feed."""

    prefix = "qos"
    owner = "repro.qos"
    histogram_names = QOS_HISTOGRAMS

    def observe(self, lane: str, latency_us: float) -> None:
        name = ("reserved_latency_us" if lane == LANE_RESERVED
                else "besteffort_latency_us")
        self.histograms[name].observe(latency_us)


class QosManager:
    """Bandwidth reservations and priority lanes over one fabric."""

    def __init__(self, fabric: "SCIFabric"):
        self.fabric = fabric
        self.admission = AdmissionController(fabric.network.capacities)
        self._tenants: dict[str, frozenset[int]] = {}
        self._node_tenant: dict[int, str] = {}
        self.reservations: list[Reservation] = []
        #: Sum of ACTIVE reserved rates per link (B/µs).
        self._active: dict[object, float] = {}
        self._active_count = 0
        self._share_peak = 0.0
        self._fault_cursor = 0
        self.counters: dict[str, int] = {name: 0 for name in QOS_COUNTERS}

    # -- installation ----------------------------------------------------------

    @classmethod
    def install(cls, cluster: "Cluster") -> "QosManager":
        """Create a manager on ``cluster``'s fabric and hook it in."""
        manager = cls(cluster.fabric)
        cluster.fabric.qos = manager
        return manager

    # -- tenants ---------------------------------------------------------------

    def add_tenant(self, name: str, nodes: Iterable[int]) -> None:
        """Declare tenant ``name`` as owning ``nodes`` (disjoint sets)."""
        nodes = frozenset(nodes)
        if name in self._tenants:
            raise ValueError(f"duplicate tenant {name!r}")
        taken = nodes.intersection(self._node_tenant)
        if taken:
            raise ValueError(f"nodes {sorted(taken)} already belong to a tenant")
        self._tenants[name] = nodes
        for node in nodes:
            self._node_tenant[node] = name

    def lane_of_node(self, node: int) -> str:
        """The lane of traffic injected by ``node`` *right now*: reserved
        iff its tenant holds at least one ACTIVE reservation."""
        tenant = self._node_tenant.get(node)
        if tenant is None:
            return LANE_BEST_EFFORT
        for res in self.reservations:
            if res.tenant == tenant and res.enforcing:
                return LANE_RESERVED
        return LANE_BEST_EFFORT

    # -- lifecycle -------------------------------------------------------------

    def route_capacity(self, src: int, dst: int) -> float:
        """Min data-link capacity along ``src -> dst`` (B/µs) — the
        natural unit for sizing a reservation rate."""
        route = self.fabric.topology.route(src, dst)
        return min(self.fabric.network.capacities[link]
                   for link in route.data_segments)

    def reserve(self, tenant: str, paths: Sequence[tuple[int, int]],
                rate: float) -> Reservation:
        """Admit a reservation of ``rate`` B/µs on every data link of
        ``paths``; raises :class:`AdmissionDenied` (counted) on refusal."""
        if tenant not in self._tenants:
            raise ValueError(f"unknown tenant {tenant!r}")
        links: list[object] = []
        for src, dst in paths:
            route: "Route" = self.fabric.topology.route(src, dst)
            for link in route.data_segments:
                if link not in links:
                    links.append(link)
        res = Reservation(len(self.reservations), tenant, paths, rate, links)
        try:
            self.admission.admit(res)
        except AdmissionDenied:
            self.counters["denials"] += 1
            self._trace("qos.deny", tenant=tenant, rate=rate,
                        n_links=len(links))
            raise
        self.reservations.append(res)
        self.counters["reservations"] += 1
        self._trace("qos.reserve", tenant=tenant, res=res.res_id, rate=rate,
                    n_links=len(links))
        return res

    def provision(self, res: Reservation) -> None:
        res.provision()
        self.counters["provisions"] += 1
        self._trace("qos.provision", tenant=res.tenant, res=res.res_id,
                    epoch=res.epoch)

    def activate(self, res: Reservation) -> None:
        res.activate()
        self.counters["activations"] += 1
        self._activate_share(res)
        self._trace("qos.activate", tenant=res.tenant, res=res.res_id,
                    epoch=res.epoch)

    def revoke(self, res: Reservation) -> None:
        was_active = res.enforcing
        res.revoke()
        self.counters["revocations"] += 1
        if was_active:
            self._deactivate_share(res)
        self._trace("qos.revoke", tenant=res.tenant, res=res.res_id,
                    epoch=res.epoch)

    def reprovision(self, res: Reservation) -> None:
        res.reprovision()
        self.counters["reprovisions"] += 1
        self._trace("qos.reprovision", tenant=res.tenant, res=res.res_id,
                    epoch=res.epoch)

    def release(self, res: Reservation) -> None:
        """Release (idempotent) and withdraw the admission charge."""
        if res.state == ReservationState.RELEASED:
            return
        was_active = res.enforcing
        res.release()
        self.counters["releases"] += 1
        if was_active:
            self._deactivate_share(res)
        self.admission.withdraw(res)
        self._trace("qos.release", tenant=res.tenant, res=res.res_id)

    def _activate_share(self, res: Reservation) -> None:
        self._active_count += 1
        for link in res.links:
            share = self._active.get(link, 0.0) + res.rate
            self._active[link] = share
            frac = share / self.fabric.network.capacities[link]
            if frac > self._share_peak:
                self._share_peak = frac

    def _deactivate_share(self, res: Reservation) -> None:
        self._active_count -= 1
        for link in res.links:
            remaining = self._active.get(link, 0.0) - res.rate
            if remaining <= 0.0:
                self._active.pop(link, None)
            else:
                self._active[link] = remaining

    # -- fault ladder ----------------------------------------------------------

    def sync_with_faults(self) -> list[Reservation]:
        """Consume new ``unmap`` events from the fabric's fault plan.

        Each segment revocation tears down *every* provisioned/active
        reservation (the driver-level teardown invalidates the mappings
        the data plane was provisioned over — same degradation story as
        the transport's remap path).  Returns the newly revoked
        reservations so the caller can re-provision them, paying the
        provisioning cost again under a bumped epoch.
        """
        plan = self.fabric.fault_plan
        if plan is None:
            return []
        revoked: list[Reservation] = []
        events = plan.events
        for ev in events[self._fault_cursor:]:
            if ev.kind != FaultKind.UNMAP:
                continue
            for res in self.reservations:
                if res.state in (ReservationState.PROVISIONED,
                                 ReservationState.ACTIVE):
                    self.revoke(res)
                    revoked.append(res)
        self._fault_cursor = len(events)
        return revoked

    # -- enforcement (called by the fabric on every wire op) -------------------

    @property
    def enforcing(self) -> bool:
        """Is at least one reservation ACTIVE right now?"""
        return self._active_count > 0

    def _reservation_from(self, src: int) -> Optional[Reservation]:
        """The ACTIVE reservation policing traffic injected by ``src``
        (None if the node's tenant reserved only other sources)."""
        tenant = self._node_tenant.get(src)
        for res in self.reservations:
            if (res.tenant == tenant and res.enforcing
                    and any(s == src for s, _ in res.paths)):
                return res
        return None

    def shape_duration(self, src: int, route: "Route", nbytes: int,
                       duration: float) -> float:
        """Injection-duration shaping of one wire transfer from ``src``.

        Identity while nothing is ACTIVE.  Reserved-lane transfers are
        policed to their reservation's rate (small control messages,
        whose natural duration is overhead-bound, pass untouched via the
        max); best-effort transfers are stretched by the worst (smallest)
        throttle factor over the route's data links that carry active
        reserved share.
        """
        if self._active_count == 0:
            return duration
        lane = self.lane_of_node(src)
        if lane == LANE_RESERVED:
            self.counters["reserved_transfers"] += 1
            res = self._reservation_from(src)
            if res is not None:
                policed = nbytes / res.rate
                if policed > duration:
                    self.counters["policed_transfers"] += 1
                    return policed
            return duration
        self.counters["besteffort_transfers"] += 1
        factor = 1.0
        for link in route.data_segments:
            share = self._active.get(link)
            if share is None:
                continue
            frac = share / self.fabric.network.capacities[link]
            factor = min(factor, throttle_factor(frac))
        if factor >= 1.0:
            return duration
        self.counters["throttled_transfers"] += 1
        return duration / factor

    # -- observability ---------------------------------------------------------

    def _trace(self, kind: str, **detail) -> None:
        tracer = self.fabric.tracer
        if tracer is not None:
            tracer.record(self.fabric.engine.now, TENANT_RANK, kind, **detail)

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Register the ``qos.*`` counter/gauge collector."""
        names = ([f"qos.{name}" for name in QOS_COUNTERS]
                 + [f"qos.{name}" for name in QOS_GAUGES])
        registry.register_collector(names, self._collect)

    def _collect(self) -> dict[str, float]:
        out: dict[str, float] = {
            f"qos.{name}": value for name, value in self.counters.items()
        }
        out["qos.active_reservations"] = float(self._active_count)
        out["qos.reserved_share_peak"] = self._share_peak
        out["qos.tenants"] = float(len(self._tenants))
        return out

    def describe(self) -> dict:
        """JSON-ready QoS report section: tenants, knobs, lifecycles."""
        return {
            "counters": dict(self.counters),
            "lanes": {
                "besteffort_floor": BESTEFFORT_FLOOR,
                "credit_priority": True,
                "max_share": MAX_SHARE,
            },
            "reservations": [res.describe() for res in self.reservations],
            "tenants": {name: sorted(nodes)
                        for name, nodes in self._tenants.items()},
        }
