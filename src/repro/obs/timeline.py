"""Timeline export: Tracer events → Chrome/Perfetto ``trace_event`` JSON.

The :class:`~repro.obs.trace.Tracer` records three shapes of event:

* ``<op>.begin`` / ``<op>.end`` pairs — rank-side spans (MPI calls,
  recovery episodes, chunk writes).  Exported as ``B``/``E`` duration
  events; spans nest properly per rank (communication calls do not
  overlap within one rank), which is what the ``trace_event`` format
  requires per track.
* **complete events** — one event whose detail carries ``start`` and
  ``duration`` (the fabric's wire-level transfers, recorded once at
  completion precisely because concurrent transfers *do* overlap).
  Exported as ``X`` events.
* **instant events** — everything else (``recv.matched``,
  ``fabric.fault``, ``store.emulated``).  Exported as ``i`` events.

Track layout: one track (tid) per rank under the ``ranks`` process, one
track per fabric ringlet under the ``fabric`` process (fabric events are
recorded with the pseudo-rank ``FABRIC_RANK`` and a ``ringlet`` detail),
and one track per QoS tenant under the ``tenants`` process (QoS
lifecycle events are recorded with the pseudo-rank ``TENANT_RANK`` and a
``tenant`` detail; see :mod:`repro.qos`).  Timestamps are simulated
microseconds verbatim — exactly the unit ``chrome://tracing`` / Perfetto
expect in ``ts``/``dur``.

The exported object is ``{"traceEvents": [...], "displayTimeUnit": "ms",
"otherData": {...}}``; event order is deterministic (metadata first, then
trace order), so the output is golden-file testable.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .trace import TraceEvent, Tracer

__all__ = [
    "FABRIC_RANK",
    "TENANT_RANK",
    "chrome_trace",
    "text_timeline",
    "write_chrome_trace",
]

#: Pseudo-rank under which fabric-level events are recorded.
FABRIC_RANK = -1

#: Pseudo-rank under which per-tenant QoS events are recorded.
TENANT_RANK = -2

_RANKS_PID = 0
_FABRIC_PID = 1
_TENANTS_PID = 2

#: Span/event kind prefix → trace_event category.
_CATEGORIES = {
    "osc": "osc",
    "recover": "recovery",
    "chunk": "transport",
    "store": "transport",
    "fabric": "fabric",
    "qos": "qos",
}


def _category(kind: str) -> str:
    return _CATEGORIES.get(kind.split(".", 1)[0], "pt2pt")


def _args(detail: dict) -> dict[str, Any]:
    """Detail dict sanitized to JSON-safe values."""
    out: dict[str, Any] = {}
    for key, value in detail.items():
        if isinstance(value, (bool, int, float, str)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


def chrome_trace(tracer: "Tracer",
                 other_data: Optional[dict] = None) -> dict:
    """Export ``tracer`` as a Chrome/Perfetto ``trace_event`` object.

    ``other_data`` lands in the top-level ``otherData`` field (the CLI
    puts scenario parameters and the fault-plan replay log there).
    """
    events: list[dict] = []
    ranks = sorted({ev.rank for ev in tracer.events
                    if ev.rank not in (FABRIC_RANK, TENANT_RANK)})
    ringlets = sorted({
        ev.detail.get("ringlet", 0)
        for ev in tracer.events if ev.rank == FABRIC_RANK
    })
    tenants = sorted({
        str(ev.detail.get("tenant", ""))
        for ev in tracer.events if ev.rank == TENANT_RANK
    })
    tenant_tids = {name: tid for tid, name in enumerate(tenants)}

    # Track metadata: one process each for ranks, fabric and tenants.
    if ranks:
        events.append(_meta("process_name", _RANKS_PID, args={"name": "ranks"}))
        for rank in ranks:
            events.append(_meta("thread_name", _RANKS_PID, tid=rank,
                                args={"name": f"rank {rank}"}))
    if ringlets:
        events.append(_meta("process_name", _FABRIC_PID,
                            args={"name": "fabric"}))
        labels = tracer.ringlet_labels
        for ringlet in ringlets:
            name = labels.get(ringlet, f"ringlet {ringlet}")
            events.append(_meta("thread_name", _FABRIC_PID, tid=ringlet,
                                args={"name": name}))
    if tenants:
        events.append(_meta("process_name", _TENANTS_PID,
                            args={"name": "tenants"}))
        for name, tid in tenant_tids.items():
            events.append(_meta("thread_name", _TENANTS_PID, tid=tid,
                                args={"name": f"tenant {name}"}))

    for ev in tracer.events:
        events.append(_convert(ev, tenant_tids))

    trace: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if other_data:
        trace["otherData"] = other_data
    return trace


def _meta(name: str, pid: int, tid: int = 0, args: Optional[dict] = None) -> dict:
    return {"name": name, "ph": "M", "pid": pid, "tid": tid,
            "args": args or {}}


def _convert(ev: "TraceEvent",
             tenant_tids: Optional[dict[str, int]] = None) -> dict:
    if ev.rank == FABRIC_RANK:
        pid, tid = _FABRIC_PID, ev.detail.get("ringlet", 0)
    elif ev.rank == TENANT_RANK:
        pid = _TENANTS_PID
        tid = (tenant_tids or {}).get(str(ev.detail.get("tenant", "")), 0)
    else:
        pid, tid = _RANKS_PID, ev.rank
    base: dict[str, Any] = {"pid": pid, "tid": tid, "cat": _category(ev.kind)}

    if ev.kind.endswith(".begin"):
        name = ev.kind[: -len(".begin")]
        return {**base, "name": name, "ph": "B", "ts": ev.time,
                "args": _args(ev.detail)}
    if ev.kind.endswith(".end"):
        name = ev.kind[: -len(".end")]
        return {**base, "name": name, "ph": "E", "ts": ev.time,
                "args": _args(ev.detail)}
    if "start" in ev.detail and "duration" in ev.detail:
        detail = dict(ev.detail)
        start = detail.pop("start")
        duration = detail.pop("duration")
        return {**base, "name": ev.kind, "ph": "X", "ts": start,
                "dur": duration, "args": _args(detail)}
    return {**base, "name": ev.kind, "ph": "i", "s": "t", "ts": ev.time,
            "args": _args(ev.detail)}


def write_chrome_trace(tracer: "Tracer", path: str,
                       other_data: Optional[dict] = None) -> None:
    """Serialize :func:`chrome_trace` to ``path`` (pretty-printed JSON)."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, other_data=other_data), fh, indent=1)
        fh.write("\n")


# -- terminal timeline ---------------------------------------------------------


def text_timeline(tracer: "Tracer", width: int = 72,
                  max_spans_per_rank: int = 40) -> str:
    """A compact per-rank span timeline for terminals.

    One line per span: offset bar + kind + duration + the most useful
    detail fields.  Spans are listed per rank in start order; fabric
    transfers appear under a ``fabric`` lane.
    """
    spans = sorted(tracer.spans(), key=lambda s: (s.rank, s.start, s.end))
    horizon = max((s.end for s in spans), default=0.0)
    fabric_events = [ev for ev in tracer.events
                     if ev.rank == FABRIC_RANK and "start" in ev.detail]
    for ev in fabric_events:
        horizon = max(horizon, ev.detail["start"] + ev.detail["duration"])
    if horizon <= 0:
        return "(empty timeline)"

    bar_width = max(16, width - 40)

    def bar(start: float, end: float) -> str:
        lo = int(start / horizon * bar_width)
        hi = max(lo + 1, int(end / horizon * bar_width))
        return " " * lo + "#" * (hi - lo) + " " * (bar_width - hi)

    lines = [f"timeline (0 .. {horizon:.1f} us simulated)"]
    by_rank: dict[int, list] = {}
    for span in spans:
        by_rank.setdefault(span.rank, []).append(span)
    for rank in sorted(by_rank):
        lines.append(f"rank {rank}")
        shown = by_rank[rank][:max_spans_per_rank]
        for span in shown:
            label = span.kind
            extra = ", ".join(
                f"{k}={span.detail[k]}"
                for k in ("protocol", "strategy", "nbytes", "mode")
                if k in span.detail
            )
            lines.append(
                f"  |{bar(span.start, span.end)}| {label:<16} "
                f"{span.duration:9.1f} us  {extra}"
            )
        hidden = len(by_rank[rank]) - len(shown)
        if hidden > 0:
            lines.append(f"  ... {hidden} more spans")
    if fabric_events:
        lines.append("fabric")
        for ev in fabric_events[:max_spans_per_rank]:
            start = ev.detail["start"]
            duration = ev.detail["duration"]
            lines.append(
                f"  |{bar(start, start + duration)}| {ev.kind:<16} "
                f"{duration:9.1f} us  {ev.detail.get('op', '')} "
                f"{ev.detail.get('nbytes', '')}B "
                f"n{ev.detail.get('src', '?')}->n{ev.detail.get('dst', '?')}"
            )
        hidden = len(fabric_events) - max_spans_per_rank
        if hidden > 0:
            lines.append(f"  ... {hidden} more transfers")
    return "\n".join(lines)
