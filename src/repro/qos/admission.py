"""Admission control: per-link headroom checks against the flow capacities.

The controller owns a ledger of admitted rates per link (ptsn-integer
style: a constraint table over link capacities, not a packet simulator).
A reservation asking for ``rate`` B/µs across a set of links is granted
iff *every* link still has headroom::

    admitted[link] + rate  <=  MAX_SHARE * capacity[link]

The comparison is inclusive — a request landing exactly on the boundary
is admitted (the budget is a budget, not a strict bound), which the
lifecycle edge tests pin.  Denials carry structured per-link evidence so
a rejected tenant knows which link ran out and by how much.

Charges persist across fault-driven revocations (a revoked reservation
keeps its budget so re-provisioning cannot be starved by later arrivals)
and are withdrawn only on release.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .lanes import MAX_SHARE
from .reservation import Reservation, ReservationState, ReservationStateError

__all__ = ["AdmissionController", "AdmissionDecision", "AdmissionDenied"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check, with per-link evidence."""

    granted: bool
    #: Per-link evidence rows: link, capacity, budget (= MAX_SHARE *
    #: capacity), already-admitted rate, requested rate, headroom.
    links: list[dict] = field(default_factory=list)

    def describe(self) -> dict:
        return {"granted": self.granted, "links": list(self.links)}


class AdmissionDenied(RuntimeError):
    """A reservation request exceeded some link's reservable budget."""

    def __init__(self, decision: AdmissionDecision):
        blocking = [row["link"] for row in decision.links
                    if row["requested"] > row["headroom"]]
        super().__init__(
            f"admission denied: insufficient headroom on {blocking}")
        self.decision = decision


class AdmissionController:
    """The per-link reservation budget of one fabric."""

    def __init__(self, capacities: Mapping[object, float]):
        self.capacities = dict(capacities)
        self._admitted: dict[object, float] = {}

    def admitted(self, link: object) -> float:
        """Total rate currently admitted on ``link`` (B/µs)."""
        return self._admitted.get(link, 0.0)

    def budget(self, link: object) -> float:
        """Reservable budget of ``link``: ``MAX_SHARE * capacity``."""
        return MAX_SHARE * self.capacities[link]

    def headroom(self, link: object) -> float:
        """Rate still grantable on ``link`` (B/µs)."""
        return self.budget(link) - self.admitted(link)

    def check(self, links: Sequence[object], rate: float) -> AdmissionDecision:
        """Would ``rate`` on every one of ``links`` be admitted?  Pure."""
        rows = []
        granted = True
        for link in links:
            if link not in self.capacities:
                raise KeyError(f"unknown link {link!r}")
            headroom = self.headroom(link)
            rows.append({
                "admitted": self.admitted(link),
                "budget": self.budget(link),
                "capacity": self.capacities[link],
                "headroom": headroom,
                "link": str(link),
                "requested": rate,
            })
            if rate > headroom:
                granted = False
        return AdmissionDecision(granted=granted, links=rows)

    def admit(self, reservation: Reservation) -> AdmissionDecision:
        """Admit ``reservation`` (REQUESTED -> RESERVED) or raise
        :class:`AdmissionDenied`; on grant the rate is charged against
        every link of the reservation."""
        decision = self.check(reservation.links, reservation.rate)
        if not decision.granted:
            raise AdmissionDenied(decision)
        reservation.admit()
        for link in reservation.links:
            self._admitted[link] = self.admitted(link) + reservation.rate
        return decision

    def withdraw(self, reservation: Reservation) -> None:
        """Return a released reservation's charge to the budget."""
        if reservation.state != ReservationState.RELEASED:
            raise ReservationStateError(
                f"withdraw needs a released reservation, "
                f"got {reservation.state!r}")
        for link in reservation.links:
            remaining = self.admitted(link) - reservation.rate
            if remaining <= 1e-12 * self.capacities[link]:
                self._admitted.pop(link, None)
            else:
                self._admitted[link] = remaining
