"""Registry wiring: one :class:`MetricsRegistry` over a whole Cluster.

:func:`build_registry` registers a pull-collector per subsystem, reading
the live ad-hoc counters that PRs 1–3 grew — per-rank device counters and
recovery state, scheduler chunk stats, fabric counters, segment-directory
counters, the process-wide plan cache, policy knobs, the simulation
engine, (when installed) the fault plan, and (when attached) the
tracer's ``span.*`` totals.  Per-rank values are summed across ranks;
``Cluster.metrics`` builds the registry lazily.

The metric-name tables of ``docs/OBSERVABILITY.md`` are generated from
this wiring; ``tools/docs_check.py`` fails when the two drift apart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import MetricsRegistry, _Instrument

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.builder import Cluster

__all__ = ["build_registry"]

_DEVICE_COUNTERS = ("sends", "recvs", "short", "eager", "rndv")
_RECOVERY_COUNTERS = ("retries", "resumes", "timeouts", "remaps",
                      "fallbacks", "aborts")
_CHUNK_STATS = ("chunks", "chunk_bytes", "chunk_time")
_FABRIC_COUNTERS = ("pio_writes", "pio_reads", "dma_transfers", "barriers",
                    "interrupts", "retries", "faults", "bytes_written",
                    "bytes_read", "bytes_torn")
_PLAN_CACHE_STATS = ("hits", "misses", "evictions", "builds", "size",
                     "maxsize", "enabled")
_SEGMENT_COUNTERS = ("exports", "imports")
_FAULT_KINDS = ("transient", "torn", "unmap", "stall")
_OSC_COUNTERS = ("direct_puts", "direct_gets", "remote_puts",
                 "emulated_puts", "emulated_gets", "accumulates")
_POLICY_KNOBS = ("short_threshold", "eager_threshold", "eager_slots",
                 "rendezvous_chunk", "hier_collectives")
_FASTPATH_STATS = ("table_hits", "table_misses", "table_evictions",
                   "windows", "window_chunks", "coalesced_events")
_LINK_STATS = ("count", "saturated", "peak_load", "peak_local",
               "peak_cross", "bytes")


class _SpanMetrics(_Instrument):
    """``span.<op>.count`` / ``span.<op>.time_us`` of the tracer attached
    to ``fabric``, pulled from its one begin/end pairing at snapshot time
    (no keys until a tracer is attached and a span closes)."""

    kind = "span"

    def __init__(self, fabric):
        super().__init__("span", unit="us", owner="repro.obs.trace")
        self._fabric = fabric

    def sample(self) -> dict[str, float]:
        tracer = self._fabric.tracer
        return {} if tracer is None else tracer.span_metrics()

    def sample_names(self) -> tuple[str, ...]:
        return tuple(self.sample())


def _summed(dicts, keys, prefix: str):
    out = {f"{prefix}.{key}": 0 for key in keys}
    for d in dicts:
        for key in keys:
            out[f"{prefix}.{key}"] += d[key]
    return out


def build_registry(cluster: "Cluster") -> MetricsRegistry:
    """The metrics registry of ``cluster`` (every subsystem collected)."""
    from ..mpi.flatten import plan_cache_stats

    registry = MetricsRegistry()
    world = cluster.world
    fabric = cluster.fabric

    registry._register(_SpanMetrics(fabric))
    registry.register_collector(
        [f"pt2pt.{key}" for key in _DEVICE_COUNTERS],
        lambda: _summed((d.counters for d in world.devices),
                        _DEVICE_COUNTERS, "pt2pt"),
    )
    registry.register_collector(
        [f"recovery.{key}" for key in _RECOVERY_COUNTERS],
        lambda: _summed((d.recovery for d in world.devices),
                        _RECOVERY_COUNTERS, "recovery"),
    )
    registry.register_collector(
        ["transport.chunks", "transport.chunk_bytes",
         "transport.chunk_time_us"],
        lambda: {
            f"transport.{key}_us" if key == "chunk_time" else f"transport.{key}":
                sum(d.scheduler.stats[key] for d in world.devices)
            for key in _CHUNK_STATS
        },
    )
    registry.register_collector(
        [f"fabric.{key}" for key in _FABRIC_COUNTERS],
        lambda: _summed([fabric.counters], _FABRIC_COUNTERS, "fabric"),
    )
    registry.register_collector(
        [f"fabric.link_{key}" for key in _LINK_STATS],
        lambda: {f"fabric.link_{key}": value
                 for key, value in fabric.link_stats().items()},
    )
    registry.register_collector(
        [f"plan_cache.{key}" for key in _PLAN_CACHE_STATS],
        lambda: {f"plan_cache.{key}": plan_cache_stats()[key]
                 for key in _PLAN_CACHE_STATS},
    )
    registry.register_collector(
        [f"segments.{key}" for key in _SEGMENT_COUNTERS],
        lambda: _summed([cluster.smi.directory.counters],
                        _SEGMENT_COUNTERS, "segments"),
    )
    registry.register_collector(
        [f"faults.{kind}" for kind in _FAULT_KINDS] + ["faults.injected"],
        lambda: _fault_values(fabric),
    )
    registry.register_collector(
        [f"osc.{key}" for key in _OSC_COUNTERS],
        lambda: _summed(_window_counter_dicts(world), _OSC_COUNTERS, "osc"),
    )
    registry.register_collector(
        [f"policy.{knob}" for knob in _POLICY_KNOBS],
        lambda: {f"policy.{knob}": value
                 for knob, value in world.policy.describe(world.config).items()},
    )
    registry.register_collector(
        ["sim.events", "sim.time_us"],
        lambda: {"sim.events": cluster.engine.events_processed,
                 "sim.time_us": cluster.engine.now},
    )
    registry.register_collector(
        [f"engine.fastpath_{key}" for key in _FASTPATH_STATS],
        lambda: _fastpath_values(world, cluster.engine),
    )
    return registry


def _fastpath_values(world, engine) -> dict[str, int]:
    out = {f"engine.fastpath_{key}": 0 for key in _FASTPATH_STATS}
    for d in world.devices:
        table = d.scheduler.costs.stats()
        out["engine.fastpath_table_hits"] += table["hits"]
        out["engine.fastpath_table_misses"] += table["misses"]
        out["engine.fastpath_table_evictions"] += table["evictions"]
        out["engine.fastpath_windows"] += d.scheduler.fastpath["windows"]
        out["engine.fastpath_window_chunks"] += \
            d.scheduler.fastpath["window_chunks"]
    out["engine.fastpath_coalesced_events"] = engine.events_coalesced
    return out


def _fault_values(fabric) -> dict[str, int]:
    plan = fabric.fault_plan
    out = {f"faults.{kind}": (plan.counters[kind] if plan is not None else 0)
           for kind in _FAULT_KINDS}
    out["faults.injected"] = plan.total_injected if plan is not None else 0
    return out


def _window_counter_dicts(world):
    """Counter dicts of every Win handle of every window of ``world``."""
    for state in getattr(world, "_win_registry", {}).values():
        for win in state.handles:
            yield win.counters
