"""Bandwidth reservation + QoS: multi-tenant isolation on a shared fabric.

The SCI fabric is a shared medium; PR 7's :class:`FlowNetwork` made
contention *measurable* (per-link demand, peaks, saturation), this
package makes it *controllable*: tenants reserve capacity on fabric
paths through an explicit OpenNSA-style lifecycle
(reserve -> provision -> activate -> release, with fault-driven
revoke -> re-provision), an admission controller keeps the per-link
promises sound, and the fabric enforces priority lanes — reserved
traffic is policed to its promised rate while best-effort traffic
crossing a reserved link is throttled, never below a documented floor.

See ``docs/QOS.md`` for the lifecycle diagram, the admission math and
the enforcement model; the ``qos_contention`` scenario
(:mod:`repro.scenarios.qos_contention`) is the end-to-end isolation
proof.
"""

from .admission import AdmissionController, AdmissionDecision, AdmissionDenied
from .lanes import (BESTEFFORT_FLOOR, LANE_BEST_EFFORT, LANE_RESERVED,
                    MAX_SHARE, throttle_factor)
from .manager import (QOS_COUNTERS, QOS_GAUGES, QOS_HISTOGRAMS, TENANT_RANK,
                      QosInstruments, QosManager)
from .reservation import Reservation, ReservationState, ReservationStateError

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionDenied",
    "BESTEFFORT_FLOOR",
    "LANE_BEST_EFFORT",
    "LANE_RESERVED",
    "MAX_SHARE",
    "QOS_COUNTERS",
    "QOS_GAUGES",
    "QOS_HISTOGRAMS",
    "QosInstruments",
    "QosManager",
    "Reservation",
    "ReservationState",
    "ReservationStateError",
    "TENANT_RANK",
    "throttle_factor",
]
