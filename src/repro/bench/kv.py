"""Replicated-KV overload point: open-loop vs. closed-loop tail latency.

A closed-loop load generator (each client issues the next op only after
the previous one completes) *cannot* observe overload: when the service
slows down, the offered load slows down with it, and the measured tail
latency stays flat — the coordinated-omission trap.  An open-loop
generator (ops arrive on a seeded exponential clock regardless of
completions) keeps offering load at the configured rate, so queueing
delay shows up in the *sojourn* time (completion minus arrival) and
overload sheds ops at the bounded queue instead of silently stretching
the inter-arrival gap.

:func:`run_overload_point` measures both sides of that argument on the
chain-replicated store at million-key scale:

1. **calibrate** — a closed-loop run measures the service capacity
   (completed ops per simulated second) and the closed-loop p99 of the
   *service* time;
2. **overload** — an open-loop run offers ``OVERLOAD_FACTOR`` times that
   capacity through a bounded per-client queue and reports the p99
   *sojourn* time plus the shed fraction.

The open-loop p99 must come out strictly above the closed-loop p99 at
the same per-op cost — if it does not, the harness is hiding queueing
delay and the point raises instead of reporting numbers.  CI gates on
``kv_overload_p99_us`` (the open-loop sojourn p99, lower is better) and
the scenario headline ``kv_failover_availability`` (higher is better —
``tools/bench_compare.py`` reads the direction off the suffix).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mpi.flatten import reset_plan_cache
from ..svc import (OpenLoopSpec, ReplicatedServiceConfig, WorkloadSpec,
                   run_replicated_service)

__all__ = ["run_overload_point", "OverloadPoint", "OVERLOAD_FACTOR"]

#: Offered open-loop rate as a multiple of the calibrated capacity.
OVERLOAD_FACTOR = 1.2

_N_GROUPS = 2
_REPLICATION = 2
_N_CLIENTS = 2
_SLOTS_PER_SHARD = 64
_VALUE_SIZE = 32
_MAX_QUEUE = 16


@dataclass(frozen=True)
class OverloadPoint:
    """Both sides of the open- vs. closed-loop comparison."""

    capacity_ops: float       #: closed-loop completed ops per second
    closed_p99_us: float      #: closed-loop service-time p99
    open_p99_us: float        #: open-loop *sojourn* p99 at overload
    shed_rate: float          #: fraction of arrivals shed at the queue
    offered_interarrival_us: float  #: per-client open-loop mean gap


def _config(n_keys: int, ops_per_client: int, seed: int,
            open_loop: OpenLoopSpec | None) -> ReplicatedServiceConfig:
    spec = WorkloadSpec(n_keys=n_keys, read_fraction=0.5, incr_fraction=0.0,
                        dist="uniform", ops_per_client=ops_per_client,
                        value_size=_VALUE_SIZE, seed=seed)
    return ReplicatedServiceConfig(
        n_groups=_N_GROUPS, replication=_REPLICATION, n_clients=_N_CLIENTS,
        slots_per_shard=_SLOTS_PER_SHARD, open_loop=open_loop, workload=spec)


def run_overload_point(n_keys: int = 1_000_000, ops_per_client: int = 120,
                       seed: int = 1) -> OverloadPoint:
    """Calibrate capacity closed-loop, then overload it open-loop.

    The key space is a million keys by default — far beyond the slot
    capacity, so the run exercises the hashed-slot eviction path rather
    than a cache-resident toy; keys are hashed on the fly, so the scale
    costs nothing but realism.
    """
    reset_plan_cache()
    closed = run_replicated_service(_config(n_keys, ops_per_client, seed,
                                            open_loop=None))
    if not closed["verified"]:
        raise AssertionError(
            f"closed-loop calibration cell failed verification: "
            f"{closed['checks']}")
    capacity = closed["throughput_ops"]
    closed_p99 = closed["latency_us"]["service"]["p99"]

    interarrival = 1e6 * _N_CLIENTS / (OVERLOAD_FACTOR * capacity)
    spec = OpenLoopSpec(mean_interarrival_us=interarrival,
                        max_queue=_MAX_QUEUE)
    reset_plan_cache()
    open_ = run_replicated_service(_config(n_keys, ops_per_client, seed,
                                           open_loop=spec))
    if not open_["verified"]:
        raise AssertionError(
            f"open-loop overload cell failed verification: "
            f"{open_['checks']}")
    open_p99 = open_["latency_us"]["sojourn"]["p99"]

    if open_p99 <= closed_p99:
        raise AssertionError(
            f"open-loop sojourn p99 ({open_p99:.1f}us) did not exceed "
            f"closed-loop p99 ({closed_p99:.1f}us) at "
            f"{OVERLOAD_FACTOR}x capacity — the load generator is "
            f"hiding queueing delay")
    return OverloadPoint(
        capacity_ops=capacity, closed_p99_us=closed_p99,
        open_p99_us=open_p99, shed_rate=open_["open_loop"]["shed_rate"],
        offered_interarrival_us=interarrival)
