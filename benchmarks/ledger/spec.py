"""The ledger's fixed contract: workload sizes, metric names and bounds.

Everything here is a constant on purpose.  A benchmark whose sizes or
offered rates adapt to the code under test cannot compare two commits:
a faster service must face the same offered load, a slower datatype
engine the same sweep.  ``BENCHMARK.json`` at the repository root
repeats the end-to-end and per-layer tables; ``test_ledger.py`` holds
the two in agreement.
"""

from __future__ import annotations

from layers import LAYERS

KiB = 1024
MiB = 1024 * KiB

# -- workload sizes ------------------------------------------------------------

#: Each size below was set so one body costs 1-3 s of user CPU on the
#: 2-core reference box (see README.md, "Sizing").
SIZES: dict[str, dict] = {
    "noncontig": {
        # Fig. 7 blocksizes (stride = 2 x block) at each payload.
        "blocksizes": [8, 16, 32, 64, 128, 256, 512, 1 * KiB, 4 * KiB,
                       16 * KiB, 64 * KiB, 128 * KiB],
        "payloads": [256 * KiB, 512 * KiB],
        "sends_per_cell": 4,
        "family_payload": 64 * KiB,
        "struct_records": [1536, 128],
    },
    "sparse_put": {"window": 128 * KiB, "access_sizes": [8, 64, 1 * KiB,
                                                         64 * KiB]},
    "sparse_get": {"window": 128 * KiB, "access_sizes": [8, 64, 1 * KiB,
                                                         64 * KiB]},
    "rndv_stream": {"message": 4 * MiB, "stream_messages": 256,
                    "ring_nodes": 8, "ring_iterations": 3},
    "collective_scale": {"message": 128 * KiB, "ringlet": 8,
                         "iterations": 2,
                         "cells": [[64, True], [64, False], [128, True]]},
    "kv_overload": {"rates_ops": [40_000, 56_000, 72_000, 96_000],
                    "groups": 2, "replication": 2, "clients": 4,
                    "keys": 1_000_000, "read_fraction": 0.5,
                    "value_size": 32, "max_queue": 16,
                    "arrivals_per_client": 300,
                    "p99_limit_us": 500.0},
    "scenario_matrix": {"scale": 4, "seeds_per_run": 2, "seed_space": 97},
}

WORKLOADS: tuple[str, ...] = tuple(SIZES)

#: Repeat protocol: one cold repeat, then timed repeats while they fit
#: into ``--seconds``, never fewer than MIN nor more than MAX.
MIN_TIMED_REPEATS = 3
MAX_TIMED_REPEATS = 5
#: Fresh processes whose set-up cost is sampled per run (the measuring
#: child is one of them).
SETUP_SAMPLES = 5

# -- end-to-end metrics --------------------------------------------------------

#: name -> (unit, better, bound).  Printed by every ``--trace 0`` run.
#: The host-time bounds are as wide as they are because the reference
#: box drifts: identical runs of one seed spread by 2-13 % (IQR/median)
#: over ten minutes.  Claims of a gain follow the paired protocol of the
#: choosing-metrics guide, not these bounds.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "host_user_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.10),
    "sim_us": ("us", "lower", 0.10),
    "sim_mibs_geomean": ("MiB/s", "higher", 0.10),
    "paper_err_mean_pct": ("%", "lower", 0.05),
}

# -- per-layer metrics ---------------------------------------------------------

#: Registry counts reported verbatim, summed over a repeat's cells.
REGISTRY_COUNTS: tuple[str, ...] = (
    "sim.events",
    "fabric.link_saturated",
    "fabric.pio_writes", "fabric.pio_reads", "fabric.bytes_written",
    "fabric.bytes_read", "fabric.interrupts", "fabric.retries",
    "fabric.bytes_torn",
    "plan_cache.hits", "plan_cache.misses", "plan_cache.builds",
    "transport.chunks", "transport.chunk_bytes", "transport.chunk_time_us",
    "pt2pt.short", "pt2pt.eager", "pt2pt.rndv",
    "engine.fastpath_windows", "engine.fastpath_window_chunks",
    "engine.fastpath_table_hits", "engine.fastpath_table_misses",
    "engine.fastpath_coalesced_events",
    "osc.direct_puts", "osc.direct_gets", "osc.remote_puts",
    "osc.emulated_puts", "osc.emulated_gets", "osc.accumulates",
    "segments.imports",
    "faults.injected",
    "recovery.retries", "recovery.resumes", "recovery.fallbacks",
    "recovery.timeouts",
)
#: Registry gauges that take the maximum over cells instead of the sum.
REGISTRY_MAXIMA: tuple[str, ...] = ("fabric.link_peak_load",)

_UNITS = {
    "fabric.bytes_written": "B", "fabric.bytes_read": "B",
    "fabric.bytes_torn": "B", "transport.chunk_bytes": "B",
    "transport.chunk_time_us": "us", "fabric.link_peak_load": "1",
}


def _per_layer() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of every ``--trace 1`` metric."""
    table: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        table[f"{layer}.self_s"] = ("s", "lower")
        table[f"{layer}.calls_in"] = ("count", "lower")
    for name in REGISTRY_COUNTS + REGISTRY_MAXIMA:
        table[name] = (_UNITS.get(name, "count"), "lower")
    table.update({
        "sim.events_per_host_s": ("1/s", "higher"),
        "sim.host_us_per_event": ("us", "lower"),
        "plan_cache.hit_ratio": ("1", "higher"),
        "engine.fastpath_window_chunk_share": ("1", "higher"),
        "engine.fastpath_table_hit_ratio": ("1", "higher"),
        "recovery.retry_ratio": ("1", "lower"),
        "host.sys_s": ("s", "lower"),
        "host.wall_s": ("s", "lower"),
        "host.minor_faults": ("count", "lower"),
        "host.gc_collections": ("count", "lower"),
        "kv.arrivals": ("count", "higher"),
        "kv.served": ("count", "higher"),
        "kv.shed": ("count", "lower"),
        "kv.shed_frac": ("1", "lower"),
        "kv.mean_queue_wait_us": ("us", "lower"),
        "kv.max_sojourn_us": ("us", "lower"),
        "kv.sim_p99_us.r40k": ("us", "lower"),
        "kv.sim_p99_us.r56k": ("us", "lower"),
        "kv.sim_p99_us.r72k": ("us", "lower"),
        "kv.sim_p99_us.r96k": ("us", "lower"),
        "kv.sim_max_rate_ops": ("1/s", "higher"),
        "bench.ops": ("count", "higher"),
        "bench.failed_frac": ("1", "lower"),
        "bench.cold_over_warm_x": ("x", "lower"),
        "bench.repeat_spread_pct": ("%", "lower"),
        "bench.trace_overhead_x": ("x", "lower"),
        "bench.unattributed_pct": ("%", "lower"),
    })
    return table


PER_LAYER: dict[str, tuple[str, str]] = _per_layer()
