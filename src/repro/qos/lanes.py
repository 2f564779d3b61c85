"""Priority lanes: the constants of QoS enforcement.

Two lanes exist.  **Reserved** traffic belongs to a tenant holding an
ACTIVE :class:`~repro.qos.reservation.Reservation` on the links it
crosses; it is *policed* to its reservation's rate (the contract cuts
both ways — an admitted tenant may not overdrive its promise and push
the fabric past the congestion knee) and its rendezvous streams are
granted the receiver's stream slot ahead of best-effort peers.
**Best-effort** traffic is everything else; while a link's reserved
share is active, its injection rate over that link is scaled down — but
never below :data:`BESTEFFORT_FLOOR`, the documented starvation bound.

This module is deliberately leaf-level (stdlib only) so both
:mod:`repro.mpi.transport.scheduler` and :mod:`repro.qos.manager` can
import it without a cycle.
"""

from __future__ import annotations

__all__ = [
    "BESTEFFORT_FLOOR",
    "LANE_BEST_EFFORT",
    "LANE_RESERVED",
    "MAX_SHARE",
    "throttle_factor",
]

#: Lane of a node belonging to a tenant with reservations.
LANE_RESERVED = "reserved"
#: Lane of every other node (including nodes of no tenant at all).
LANE_BEST_EFFORT = "best_effort"

#: What admission may promise away on any single link: reservations are
#: granted only while the sum of admitted rates stays at or below
#: ``MAX_SHARE * capacity``.  0.8 sits just below the knee of the SCI
#: congestion-response curve (delivered fraction is still ~0.98 at load
#: 0.8), so a fully admitted fabric never tips into retry collapse.
MAX_SHARE = 0.8
#: The complement of :data:`MAX_SHARE`: even a fully reserved link keeps
#: one fifth of each best-effort flow's injection rate alive.
BESTEFFORT_FLOOR = 0.2


def throttle_factor(active_share: float) -> float:
    """Injection-rate factor for best-effort traffic on a link whose
    active reserved share is ``active_share`` (1.0 = unthrottled)."""
    return max(BESTEFFORT_FLOOR, 1.0 - active_share)
