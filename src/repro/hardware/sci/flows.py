"""Fluid-flow bandwidth sharing with per-link demand accounting.

Concurrent transfers share fabric links.  This module models each transfer
as a *fluid flow* with a per-flow injection-rate cap (set by the PIO/DMA
cost model) routed over a set of links (the topology's hashable link ids —
ring segments, torus ringlet arcs, crossbar egress ports, fat-tree
up/down cables alike).  Whenever a flow starts or finishes, the rates of
the flows it shares a link with change:

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

**What a change costs.**  Each link keeps its demand terms in flow order
(a flow's data term, then its echo term), their float sum and the
fraction delivered at that sum.  A *start* adds the new flow's terms to
the links of its route (it is last in flow order, so ``sum += term`` is
the float a sum from 0.0 gives); a *finish* drops the flow's terms and
re-sums those links, and no others, from 0.0.  Fractions (the response is
pure: one evaluation per distinct load) and peaks of the changed links are
refreshed, and the flows on a link are re-rated only if its fraction
*moved*: a rate is ``cap * min(frac)``, so below the congestion knee, where
every fraction is 1.0, only the started flow is rated.  One pass over the
live flows remains: a finish is the float ``now + remaining / rate``, which
moves with ``now`` even at an unchanged rate, so every flow is re-timed.
Only the earliest finish can come before the next change re-times them
all, so only it gets a timer: the first minimum in flow order, the
``(time, seq)`` entry the heap would pop first had every flow pushed one.
The timer it replaces is cancelled — the engine drops it without moving
the clock to it, calling a time hook or counting it — so a finish computed
for rates that no longer hold is never an instant of the simulation.

Each link also carries passive statistics (:meth:`FlowNetwork.link_peak`,
:meth:`FlowNetwork.link_bytes`) that feed ``fabric.link_*`` and never the rates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ...sim.events import Event, Timeout
from ..params import congestion_fraction
from .topology import Route

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...sim import Engine

__all__ = ["Flow", "FlowNetwork", "fair_share"]


def fair_share(load: float) -> float:
    """Lossless proportional sharing: delivered = min(demand, capacity)."""
    return 1.0 if load <= 1.0 else 1.0 / load


class _Link:
    """One link: demand ``terms`` in flow order with the ``users`` owning
    them, their sum ``demand``, the ``frac`` delivered at demand ``rated``,
    and the passive ``peak`` / ``bytes`` statistics."""

    __slots__ = ("capacity", "users", "terms", "demand", "rated", "frac", "peak", "bytes")

    def __init__(self, capacity: float):
        self.capacity = capacity
        self.users: list[Flow] = []
        self.terms: list[float] = []
        self.demand = self.peak = self.bytes = 0.0
        self.rated, self.frac = -1.0, 1.0  # no demand rated yet


class Flow:
    """One in-flight transfer: its bytes cross ``data``, ``links`` adds the echo links."""

    __slots__ = ("flow_id", "data", "links", "remaining", "rate_cap", "rate", "done")

    def __init__(self, flow_id: int, data: tuple, links: tuple, nbytes: float,
                 rate_cap: float, done: Event):
        self.flow_id = flow_id
        self.data = data
        self.links = links
        self.remaining = float(nbytes)
        self.rate_cap = rate_cap
        self.rate = rate_cap
        self.done = done


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
        self._links = {seg: _Link(c) for seg, c in self.capacities.items()}
        #: ``id(route)`` -> (data links, echo links, both, the route kept alive).
        self._routes: dict[int, tuple] = {}
        self._fracs: dict[float, float] = {}  # load -> response(load)
        self._timer: Optional[Timeout] = None  # the one scheduled completion

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def transfer(self, route: Route, nbytes: float, rate_cap: float) -> Event:
        """Start a flow; the returned event fires when all bytes are delivered."""
        if nbytes > 0 and rate_cap <= 0:
            raise ValueError(f"non-positive rate cap: {rate_cap}")
        done = Event(self.engine, self._done_name)
        if nbytes <= 0 or not route.data_segments:
            # Nothing to move, or a same-node "transfer": no ring
            # involvement, instantaneous at this layer (the caller
            # accounts for local-copy time).
            done.succeed()
            return done
        data, echo, links, _ = self._resolve(route)
        flow = Flow(self._next_id, data, links, nbytes, rate_cap, done)
        self._next_id += 1
        self._advance()
        self._flows[flow.flow_id] = flow
        for link in data:
            link.users.append(flow)
            link.terms.append(rate_cap)
            link.demand += rate_cap
        echo_term = rate_cap * self.echo_ratio
        for link in echo:
            link.users.append(flow)
            link.terms.append(echo_term)
            link.demand += echo_term
        self._retime(links, flow)
        return done

    def link_peak(self) -> dict[object, float]:
        """Highest relative load each link has seen so far."""
        return {seg: link.peak for seg, link in self._links.items()}

    def link_bytes(self) -> dict[object, float]:
        """Cumulative data bytes delivered across each link so far."""
        return {seg: link.bytes for seg, link in self._links.items()}

    # -- demand -> delivered fraction: the one copy of the sharing arithmetic --

    def _resolve(self, route: Route) -> tuple:
        """``(data, echo, data + echo, route)`` link records of ``route``,
        looked up (and its link ids validated) once per route object."""
        entry = self._routes.get(id(route))
        if entry is None:
            try:
                data = tuple(self._links[seg] for seg in route.data_segments)
                echo = tuple(self._links[seg] for seg in route.echo_segments)
            except KeyError as exc:
                raise KeyError(f"unknown segment {exc.args[0]!r}") from None
            entry = self._routes[id(route)] = (data, echo, data + echo, route)
        return entry

    def _fraction(self, link: _Link, demand: float) -> float:
        """Delivered fraction of ``link`` at ``demand`` B/µs; folds the
        load into :meth:`link_peak`."""
        load = demand / link.capacity
        if load > link.peak:
            link.peak = load
        frac = self._fracs.get(load)
        if frac is None:
            if len(self._fracs) >= 4096:  # bound the memo; entries are recomputable
                self._fracs.clear()
            frac = self._fracs[load] = self.response(load)
        return frac

    # -- analytic replay (the closed-form fast path) ---------------------------

    def exclusive_rate(self, route: Route, rate_cap: float) -> float:
        """Delivered rate of one flow that has the network to itself —
        its cap times the congestion response of its most affected data
        link — exactly what :meth:`transfer` computes for a single flow,
        link peaks included."""
        data, echo, _, _ = self._resolve(route)
        demand: dict[_Link, float] = {}
        for link in data:
            demand[link] = demand.get(link, 0.0) + rate_cap
        echo_term = rate_cap * self.echo_ratio
        for link in echo:
            demand[link] = demand.get(link, 0.0) + echo_term
        frac = {link: self._fraction(link, d) for link, d in demand.items()}
        return rate_cap * min(frac[link] for link in data)

    def replay_exclusive(self, route: Route, nbytes: int, rate: float,
                         start: float) -> float:
        """One flow's lifetime on an idle network, replayed analytically.

        Performs the exact float arithmetic and per-link byte accounting
        of ``transfer`` + ``_on_timer`` for a flow that starts at
        ``start`` and runs alone at its :meth:`exclusive_rate` (caller
        guarantees :attr:`active_flows` ``== 0``), and returns its
        completion time.  The engine clock is *not* touched — the caller
        owns the window's clock sequence (see ``docs/ENGINE.md``).
        """
        remaining = float(nbytes)
        delay = remaining / rate
        end = start + delay
        # _on_timer: account delivered bytes over the elapsed span, then
        # credit the float residue of the rate/delay round-trip.
        elapsed = end - start
        delivered = min(remaining, rate * elapsed)
        remaining -= delivered
        for link in self._resolve(route)[0]:
            if delivered > 0:
                link.bytes += delivered
            if remaining > 0:
                link.bytes += remaining
        self._next_id += 1
        self._last_update = end
        return end

    # -- internals ------------------------------------------------------------

    def _advance(self) -> None:
        """Account bytes delivered since the last rate change."""
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self._flows.values():
                delivered = flow.rate * elapsed
                if delivered > flow.remaining:
                    delivered = flow.remaining
                flow.remaining -= delivered
                if delivered > 0:
                    for link in flow.data:
                        link.bytes += delivered
        self._last_update = now

    def _retime(self, changed: tuple, started: Optional[Flow] = None) -> None:
        """The demand of the ``changed`` links moved (``started`` is new on
        them): refresh their fractions, re-rate the flows on those whose
        fraction moved, re-time every flow and schedule the earliest finish
        — strict ``<`` in flow order — in place of the outstanding timer."""
        touched = {started} if started is not None else set()
        for link in changed:
            if link.demand != link.rated:  # else frac and peak still hold
                link.rated = link.demand
                frac = self._fraction(link, link.demand)
                if frac != link.frac:  # else its users' rates hold bit for bit
                    link.frac = frac
                    touched.update(link.users)
        for flow in touched:
            worst = None
            for link in flow.data:
                if worst is None or link.frac < worst:
                    worst = link.frac
            flow.rate = flow.rate_cap * worst
        now = self.engine.now
        first = None
        for flow in self._flows.values():
            delay = flow.remaining / flow.rate
            if first is None or now + delay < finish:
                first, finish, wait = flow, now + delay, delay
        if self._timer is not None:
            self._timer.cancel()
        self._timer = Timeout(self.engine, wait, first, self._timer_name)
        self._timer.callbacks.append(self._on_timer)

    def _on_timer(self, timer: Timeout) -> None:
        flow = timer._value
        self._advance()
        if flow.remaining > 0:
            # Float residue from the rate/delay round-trip: the flow is
            # done, so credit the remainder to its links before zeroing.
            for link in flow.data:
                link.bytes += flow.remaining
        flow.remaining = 0.0
        del self._flows[flow.flow_id]
        for link in flow.links:
            at = link.users.index(flow)
            del link.users[at], link.terms[at]
            demand = 0.0
            for term in link.terms:
                demand += term
            link.demand = demand
        flow.done.succeed()
        if self._flows:
            self._retime(flow.links)
