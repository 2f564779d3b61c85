"""Fluid-flow bandwidth sharing with per-link demand accounting.

Concurrent transfers share fabric links.  This module models each transfer
as a *fluid flow* with a per-flow injection-rate cap (set by the PIO/DMA
cost model) routed over a set of links (the topology's hashable link ids —
ring segments, torus ringlet arcs, crossbar egress ports, fat-tree
up/down cables alike).  Whenever a flow starts or finishes, every flow's
rate is recomputed — at a cost proportional to the links of the active
routes, not to the size of the fabric:

    rate_i = cap_i * min over links l on i's data route of frac(load_l)

where ``load_l`` is the aggregate demand on link *l* relative to that
link's capacity and ``frac`` is the congestion-response curve calibrated
from Table 2 of the paper (see
:data:`repro.hardware.params.CONGESTION_CURVE`).  Past saturation, SCI's
retry traffic makes *delivered* bandwidth fall as offered load rises —
the curve captures exactly that.  Because demand and saturation are
accounted **per link**, a saturated cross-switch port throttles only the
flows that actually cross it; ringlet-local traffic on other links is
untouched.

Echo (flow-control) traffic returns over the route's echo links and is
added to link demand with a configurable ratio, reproducing the paper's
observation that ring traffic rises with flow-control packets even when no
data segment is shared.

Besides the live rates, the network keeps passive per-link statistics —
peak relative load and cumulative delivered bytes (:meth:`FlowNetwork.link_peak`,
:meth:`FlowNetwork.link_bytes`) — which the fabric aggregates into the
``fabric.link_*`` observability metrics.  The statistics are recorded on
the side of the existing rate computation and never feed back into it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...sim.events import Event, Timeout
from ..params import congestion_fraction
from .topology import Route

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...sim import Engine

__all__ = ["Flow", "FlowNetwork", "fair_share"]


def fair_share(load: float) -> float:
    """Lossless proportional sharing: delivered = min(demand, capacity)."""
    return 1.0 if load <= 1.0 else 1.0 / load


class Flow:
    """One in-flight transfer on the ring."""

    __slots__ = ("flow_id", "route", "remaining", "rate_cap", "rate", "done", "version")

    def __init__(self, flow_id: int, route: Route, nbytes: float, rate_cap: float, done: Event):
        self.flow_id = flow_id
        self.route = route
        self.remaining = float(nbytes)
        self.rate_cap = rate_cap
        self.rate = rate_cap
        self.done = done
        self.version = 0


class FlowNetwork:
    """Max-rate fluid sharing of ring segments with congestion response."""

    def __init__(
        self,
        engine: "Engine",
        capacities: dict[object, float],
        echo_ratio: float = 0.1,
        name: str = "sci",
        response=None,
    ):
        """``response(load) -> delivered fraction`` sets the sharing
        behaviour per unit of relative demand; defaults to the SCI
        congestion curve.  Use :func:`fair_share` for media that divide
        bandwidth without retry losses (e.g. a memory bus)."""
        if any(c <= 0 for c in capacities.values()):
            raise ValueError("segment capacities must be positive")
        if echo_ratio < 0:
            raise ValueError(f"negative echo_ratio: {echo_ratio}")
        self.engine = engine
        self.capacities = dict(capacities)
        self.echo_ratio = echo_ratio
        self.name = name
        self._done_name = f"{name}:flow-done"
        self._timer_name = f"{name}:flow-timer"
        self.response = response if response is not None else congestion_fraction
        self._flows: dict[int, Flow] = {}
        self._next_id = 0
        self._last_update = engine.now
        self._peak_load: dict[object, float] = {seg: 0.0 for seg in capacities}
        self._link_bytes: dict[object, float] = {seg: 0.0 for seg in capacities}

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def transfer(self, route: Route, nbytes: float, rate_cap: float) -> Event:
        """Start a flow; the returned event fires when all bytes are delivered."""
        done = Event(self.engine, self._done_name)
        if nbytes > 0 and rate_cap <= 0:
            raise ValueError(f"non-positive rate cap: {rate_cap}")
        if nbytes <= 0 or not route.data_segments:
            # Nothing to move, or a same-node "transfer": no ring
            # involvement, instantaneous at this layer (the caller
            # accounts for local-copy time).
            done.succeed()
            return done
        for seg in route.data_segments + route.echo_segments:
            if seg not in self.capacities:
                raise KeyError(f"unknown segment {seg!r}")
        flow = Flow(self._next_id, route, nbytes, rate_cap, done)
        self._next_id += 1
        self._advance()
        self._flows[flow.flow_id] = flow
        self._recompute()
        return done

    def link_demand(self) -> dict[object, float]:
        """Current demand (B/µs) per link, data + echo."""
        flows = ((f.route, f.rate_cap) for f in self._flows.values())
        return {**dict.fromkeys(self.capacities, 0.0), **self._demand(flows)}

    def link_load(self) -> dict[object, float]:
        """Demand relative to capacity per link."""
        return {seg: d / self.capacities[seg] for seg, d in self.link_demand().items()}

    def link_peak(self) -> dict[object, float]:
        """Highest relative load each link has seen so far."""
        return dict(self._peak_load)

    def link_bytes(self) -> dict[object, float]:
        """Cumulative data bytes delivered across each link so far."""
        return dict(self._link_bytes)

    # Historical names from the single-ring era.
    segment_demand = link_demand
    segment_load = link_load

    # -- demand -> delivered fraction: the one copy of the sharing arithmetic --

    def _demand(self, flows) -> dict[object, float]:
        """Demand (B/µs) on each link that carries one of ``flows``.

        ``flows`` yields ``(route, rate_cap)`` pairs.  Per link the terms
        are added in flow order — the cap on a flow's data links, then
        ``cap * echo_ratio`` on its echo links — so each sum is the float
        an all-links table would hold; a link no flow touches is absent.
        """
        demand: dict[object, float] = {}
        for route, cap in flows:
            for seg in route.data_segments:
                demand[seg] = demand.get(seg, 0.0) + cap
            echo = cap * self.echo_ratio
            for seg in route.echo_segments:
                demand[seg] = demand.get(seg, 0.0) + echo
        return demand

    def _throttles(self, flows: list, record_peak: bool = True) -> list[float]:
        """Delivered fraction of each of ``flows`` (``(route, rate_cap)`` pairs):
        the congestion response of its most affected data link.

        Costs O(links of the given routes).  An idle link has load 0.0 —
        it raises no peak and nobody reads its fraction — and the response
        is evaluated once per distinct load of a *data* link.
        ``record_peak`` folds the loads into :meth:`link_peak`.
        """
        loads = self._demand(flows)
        for seg, d in loads.items():
            load = loads[seg] = d / self.capacities[seg]
            if record_peak and load > self._peak_load[seg]:
                self._peak_load[seg] = load
        frac: dict[float, float] = {}  # by load: the links of a ring share it
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

    # -- analytic replay (the closed-form fast path) ---------------------------

    def exclusive_rate(self, route: Route, rate_cap: float) -> float:
        """Delivered rate of a single flow on an otherwise idle network:
        exactly what :meth:`_recompute` computes for one flow, without
        touching any state."""
        return rate_cap * self._throttles([(route, rate_cap)],
                                          record_peak=False)[0]

    def replay_exclusive(self, route: Route, nbytes: int, rate_cap: float,
                         start: float) -> float:
        """One flow's lifetime on an idle network, replayed analytically.

        Performs the exact float arithmetic and per-link state mutations
        of ``transfer`` + ``_on_timer`` for a flow that starts at
        ``start`` and runs alone (caller guarantees
        :attr:`active_flows` ``== 0``), and returns its completion time.
        The engine clock is *not* touched — the caller owns the window's
        clock sequence (see ``docs/ENGINE.md``).
        """
        rate = rate_cap * self._throttles([(route, rate_cap)])[0]
        remaining = float(nbytes)
        delay = remaining / rate
        end = start + delay
        # _on_timer: account delivered bytes over the elapsed span, then
        # credit the float residue of the rate/delay round-trip.
        elapsed = end - start
        delivered = min(remaining, rate * elapsed)
        remaining -= delivered
        for seg in route.data_segments:
            if delivered > 0:
                self._link_bytes[seg] += delivered
            if remaining > 0:
                self._link_bytes[seg] += remaining
        self._next_id += 1
        self._last_update = end
        return end

    def replay_exclusive_cohort(self, route: Route, nbytes: int,
                                rate_cap: float, t1, t2) -> None:
        """Per-link accounting of a homogeneous flow cohort, vectorized.

        ``t1[i]``/``t2[i]`` are the start/completion instants of the
        ``i``-th flow of a steady-state stream (every flow same
        ``nbytes`` and ``rate_cap``, each running alone).  The caller has
        already derived ``t2`` from ``t1`` via the shared per-cycle delay
        (``nbytes / rate``), so this only replays the byte accounting:
        per flow, the delivered span then the float residue — accumulated
        into each data link with one sequential ``np.add.accumulate``
        pass, bit-identical to the event-stepped per-flow adds.
        """
        rate = rate_cap * self._throttles([(route, rate_cap)])[0]
        total = float(nbytes)
        elapsed = np.asarray(t2, dtype=np.float64) - np.asarray(t1, dtype=np.float64)
        delivered = np.minimum(total, rate * elapsed)
        residue = total - delivered
        # The event path adds ``delivered`` then (if nonzero) ``residue``
        # per flow, in stream order; interleave and keep the same order.
        pairs = np.empty((delivered.size, 2), dtype=np.float64)
        pairs[:, 0] = delivered
        pairs[:, 1] = residue
        flat = pairs.reshape(-1)
        seq = flat[flat > 0]
        for seg in route.data_segments:
            self._link_bytes[seg] = float(np.add.accumulate(
                np.concatenate(([self._link_bytes[seg]], seq)))[-1])
        self._next_id += delivered.size
        if delivered.size:
            self._last_update = float(np.asarray(t2, dtype=np.float64)[-1])

    # -- internals ------------------------------------------------------------

    def _advance(self) -> None:
        """Account bytes delivered since the last rate change."""
        elapsed = self.engine.now - self._last_update
        if elapsed > 0:
            for flow in self._flows.values():
                delivered = min(flow.remaining, flow.rate * elapsed)
                flow.remaining -= delivered
                if delivered > 0:
                    for seg in flow.route.data_segments:
                        self._link_bytes[seg] += delivered
        self._last_update = self.engine.now

    def _recompute(self) -> None:
        """Recompute every flow's rate and (re)schedule every completion:
        a flow's finish is the float ``now + remaining / rate``, so it is
        re-timed whether or not its rate changed."""
        flows = list(self._flows.values())
        throttles = self._throttles([(f.route, f.rate_cap) for f in flows])
        for flow, throttle in zip(flows, throttles):
            flow.rate = flow.rate_cap * throttle
            flow.version += 1
            # The timer's value names the rate epoch of the flow it ends.
            timer = Timeout(self.engine, flow.remaining / flow.rate,
                            (flow, flow.version), self._timer_name)
            timer.callbacks.append(self._on_timer)

    def _on_timer(self, timer: Timeout) -> None:
        flow, version = timer._value
        if flow.version != version or flow.flow_id not in self._flows:
            return  # stale timer from before a rate change
        self._advance()
        if flow.remaining > 0:
            # Float residue from the rate/delay round-trip: the flow is
            # done, so credit the remainder to its links before zeroing.
            for seg in flow.route.data_segments:
                self._link_bytes[seg] += flow.remaining
        flow.remaining = 0.0
        del self._flows[flow.flow_id]
        flow.done.succeed()
        if self._flows:
            self._recompute()
