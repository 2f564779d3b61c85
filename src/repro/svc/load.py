"""Load generation: the closed-loop and the open-loop client.

A closed-loop client (:func:`closed_loop_client`) issues the next op
only when the previous one completes — under overload the offered rate
falls to match capacity and the latency tail quietly disappears
(coordinated omission).  An open-loop client
(:func:`open_loop_client`) instead draws *arrival times* from a seeded
Poisson process at a fixed rate; ops that arrive while the service is
behind wait in a bounded client queue, and the latency that matters is
the **sojourn** time (completion - arrival), not the service time.
Beyond ``max_queue`` pending ops the client *sheds* the arrival
(``repl.shed_ops``) — explicit backpressure accounting instead of an
unbounded queue that would hide saturation as memory growth.

Both are deterministic: arrivals come from
``SeedSequence([seed, client_id, _ARRIVAL_STREAM])`` and never consult
the wall clock, so reports are byte-identical per seed like everything
else in the repo.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Callable, ContextManager, Optional

import numpy as np

from .workload import Op

__all__ = ["OpenLoopSpec", "arrival_times", "closed_loop_client",
           "open_loop_client"]

#: Seed-stream discriminator so arrival draws never alias the op draws.
_ARRIVAL_STREAM = 7


@dataclass(frozen=True)
class OpenLoopSpec:
    """Arrival process of one open-loop run (per-client rate)."""

    #: Mean inter-arrival gap per client, in simulated µs.  The offered
    #: load of the whole run is ``n_clients / mean_interarrival_us`` ops
    #: per µs.
    mean_interarrival_us: float = 50.0
    #: Arrivals pending beyond this bound are shed, not queued.
    max_queue: int = 32

    def __post_init__(self):
        if self.mean_interarrival_us <= 0.0:
            raise ValueError(
                f"mean_interarrival_us must be > 0, "
                f"got {self.mean_interarrival_us}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")

    def describe(self) -> dict:
        return asdict(self)


def arrival_times(spec: OpenLoopSpec, seed: int, client_id: int,
                  n_ops: int) -> np.ndarray:
    """The client's seeded Poisson arrival instants (µs, ascending)."""
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, client_id, _ARRIVAL_STREAM]))
    gaps = rng.exponential(spec.mean_interarrival_us, n_ops)
    return np.cumsum(gaps)


def closed_loop_client(store, ops: list[Op], think_time: float = 0.0,
                       span: Optional[Callable[[int], ContextManager]] = None,
                       on_done: Optional[Callable[[Op], None]] = None):
    """Drive ``store`` closed-loop; returns (served, shed) = (n, 0).

    ``think_time`` is the client's pause before each op (µs);
    ``span(index)`` wraps each op in a context manager (step spans) and
    ``on_done(op)`` runs after each op (application accounting).
    """
    engine = store.engine
    for index, op in enumerate(ops):
        if think_time > 0.0:
            yield engine.timeout(think_time)
        t_service = engine.now
        with span(index) if span is not None else nullcontext():
            yield from store.apply(op)
        store.m.histograms["service_latency_us"].observe(
            engine.now - t_service)
        if on_done is not None:
            on_done(op)
    return len(ops), 0


def open_loop_client(store, ops: list[Op], arrivals: np.ndarray,
                     max_queue: int):
    """Drive ``store`` open-loop; returns (served, shed) counts.

    The client is a single serial generator, so at the moment op *i* is
    considered every earlier accepted op has already completed — the
    queue depth at arrival ``t`` is the number of completion times still
    in the future, which a bisect over the completion log yields exactly.
    """
    m = store.m
    engine = store.engine
    done_times: list[float] = []
    served = shed = 0
    for op, t_arrival in zip(ops, arrivals):
        t_arrival = float(t_arrival)
        m.counters["arrivals"].inc()
        if engine.now < t_arrival:
            yield engine.timeout(t_arrival - engine.now)
        pending = len(done_times) - bisect_right(done_times, t_arrival)
        if pending >= max_queue:
            m.counters["shed_ops"].inc()
            shed += 1
            continue
        t_service = engine.now
        yield from store.apply(op)
        m.histograms["service_latency_us"].observe(engine.now - t_service)
        m.histograms["sojourn_latency_us"].observe(engine.now - t_arrival)
        done_times.append(engine.now)
        served += 1
    return served, shed
