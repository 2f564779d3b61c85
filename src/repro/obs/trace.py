"""Execution tracing for simulated MPI programs: the one event model.

A :class:`Tracer` records timestamped events (MPI call begin/end, protocol
choices, transfers) per rank, and can summarize where simulated time went —
the simulator's answer to tools like VampirTrace on real clusters.

Enable on a cluster::

    cluster = Cluster(n_nodes=2)
    tracer = attach_tracer(cluster)
    cluster.run(program)
    print(tracer.summary())

Begin/end pairing happens once, as events are recorded; it feeds
:meth:`Tracer.spans`, :meth:`Tracer.summary`, the text timeline and the
``span.*`` metrics the cluster registry pulls at snapshot time.  Tracing
is opt-in, and attaching it changes neither simulated time nor what the
engine executes: the closed-form stream windows record each replayed
chunk's events with the event path's own timestamps.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.builder import Cluster

__all__ = ["TraceEvent", "Tracer", "attach_tracer", "TraceSpan"]


@dataclass(frozen=True)
class TraceEvent:
    """One point event in the trace."""

    time: float
    rank: int
    kind: str            # e.g. "send.begin", "send.end", "recv.begin"
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TraceSpan:
    """A matched begin/end pair."""

    rank: int
    kind: str            # e.g. "send"
    start: float
    end: float
    detail: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects trace events and computes per-rank time summaries."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        #: Open ``<op>.begin`` events per (rank, op, issuing process).
        self._open: dict[tuple, list[TraceEvent]] = {}
        #: Matched (begin, end) pairs, in closing order.
        self._pairs: list[tuple[TraceEvent, TraceEvent]] = []
        #: Wired by :func:`attach_tracer` (None for a standalone tracer):
        #: the cluster whose engine names the issuing process and whose
        #: counters the summary reports.
        self._cluster: Optional["Cluster"] = None
        #: Wired by :func:`attach_tracer` to the fabric's live
        #: ``ringlet_labels`` mapping (dense ringlet id -> track name);
        #: the timeline exporter names fabric tracks from it and falls
        #: back to ``ringlet <id>`` for unnamed ids.
        self.ringlet_labels: dict[int, str] = {}

    def record(self, time: float, rank: int, kind: str, **detail: Any) -> None:
        event = TraceEvent(time, rank, kind, detail)
        self.events.append(event)
        op, _, edge = kind.rpartition(".")
        if edge != "begin" and edge != "end":
            return
        # Pair per issuing process too: two nonblocking calls of one rank
        # run as two processes whose spans overlap without nesting, so a
        # per-rank LIFO would cross their ends.
        cluster = self._cluster
        key = (rank, op,
               None if cluster is None else cluster.engine.active_process)
        if edge == "begin":
            self._open.setdefault(key, []).append(event)
            return
        stack = self._open.get(key)
        if stack:
            self._pairs.append((stack.pop(), event))
            if not stack:
                del self._open[key]

    def __len__(self) -> int:
        return len(self.events)

    def for_rank(self, rank: int) -> list[TraceEvent]:
        return [ev for ev in self.events if ev.rank == rank]

    def spans(self, kind: Optional[str] = None) -> Iterator[TraceSpan]:
        """Matched ``<op>.begin`` / ``<op>.end`` pairs, in closing order.

        An end closes the latest open begin of the same op, rank and
        issuing process (the spans of one process nest).
        """
        for begin, end in self._pairs:
            op = end.kind[: -len(".end")]
            if kind is None or kind == op:
                yield TraceSpan(end.rank, op, begin.time, end.time,
                                {**begin.detail, **end.detail})

    def span_metrics(self) -> dict[str, float]:
        """``span.<op>.count`` / ``span.<op>.time_us`` summed over ranks,
        ops in first-close order (what the cluster registry reports)."""
        out: dict[str, float] = {}
        for begin, end in self._pairs:
            op = end.kind[: -len(".end")]
            count, time_us = f"span.{op}.count", f"span.{op}.time_us"
            out[count] = out.get(count, 0) + 1
            out[time_us] = out.get(time_us, 0) + (end.time - begin.time)
        return out

    def time_in(self, rank: int, op: str) -> float:
        """Total simulated time rank spent inside ``op`` calls."""
        return sum(s.duration for s in self.spans(op) if s.rank == rank)

    def summary(self) -> str:
        """Per-rank, per-op time table, then the pack-plan cache and (when
        attached) the cluster's fabric, recovery and fault-plan counters."""
        from ..mpi.flatten import plan_cache_stats
        from .wiring import _RECOVERY_COUNTERS

        per: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for span in self.spans():
            per[span.rank][span.kind] += span.duration
            counts[span.rank][span.kind] += 1
        lines = ["trace summary (simulated µs)"]
        for rank in sorted(per):
            parts = [
                f"{op}: {per[rank][op]:9.1f} ({counts[rank][op]}x)"
                for op in sorted(per[rank])
            ]
            lines.append(f"  rank {rank}: " + "  ".join(parts))
        if len(lines) == 1:
            lines.append("  (no spans recorded)")
        stats = plan_cache_stats()
        lines.append(
            "  pack-plan cache: "
            f"hits={stats['hits']} misses={stats['misses']} "
            f"builds={stats['builds']} size={stats['size']}/{stats['maxsize']}"
            + ("" if stats["enabled"] else " (disabled)")
        )
        if self._cluster is not None:
            snap = self._cluster.metrics.snapshot()
            lines.append(f"  fabric: retries={snap['fabric.retries']} "
                         f"faults={snap['fabric.faults']}")
            lines.append("  recovery: " + " ".join(
                f"{key}={snap[f'recovery.{key}']}"
                for key in _RECOVERY_COUNTERS))
            plan = self._cluster.fabric.fault_plan
            if plan is not None:
                lines.append(
                    f"  fault plan (seed={plan.seed}): {plan.one_line()}")
        return "\n".join(lines)


def attach_tracer(cluster: "Cluster") -> Tracer:
    """Attach a tracer to every rank device and the fabric of ``cluster``.

    Must be called before the program runs; returns the Tracer.  Rank
    devices record MPI-call spans; the fabric records its wire-level
    transfers under the pseudo-rank :data:`repro.obs.timeline.FABRIC_RANK`
    (one timeline track per ringlet); the cluster's metrics registry
    reports the tracer's ``span.*`` totals.
    """
    tracer = Tracer()
    for device in cluster.world.devices:
        device.tracer = tracer
    cluster.fabric.tracer = tracer
    tracer._cluster = cluster
    tracer.ringlet_labels = cluster.fabric.ringlet_labels
    return tracer
