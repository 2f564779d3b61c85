"""Unified observability: the event model, metrics registry, timeline export.

This package is the single observability layer of the stack (see
``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.trace` — :class:`Tracer` / :func:`attach_tracer`: trace
  events, begin/end pairing into spans, per-rank time summaries;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments and
  pull-collectors over the existing subsystem counter dicts;
* :mod:`repro.obs.timeline` — Chrome/Perfetto ``trace_event`` export and
  a compact per-rank text timeline;
* :mod:`repro.obs.wiring` — :func:`build_registry` assembling the whole
  cluster's registry (exposed as ``Cluster.metrics``).
"""

from .metrics import Counter, Gauge, Histogram, MetricError, MetricsRegistry
from .timeline import (
    FABRIC_RANK,
    chrome_trace,
    text_timeline,
    write_chrome_trace,
)
from .trace import TraceEvent, Tracer, TraceSpan, attach_tracer
from .wiring import build_registry

__all__ = [
    "Counter",
    "FABRIC_RANK",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "TraceEvent",
    "TraceSpan",
    "Tracer",
    "attach_tracer",
    "build_registry",
    "chrome_trace",
    "text_timeline",
    "write_chrome_trace",
]
