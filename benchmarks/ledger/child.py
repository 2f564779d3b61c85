"""The measuring process: one workload, one seed, in a fresh interpreter.

``run.py`` starts this file once per workload (and a few more times with
``--setup-only`` to sample the set-up cost).  Protocol::

    imports -> one cold repeat (reported, not in the medians)
            -> timed repeats while they fit into --seconds (3 to 5)
            -> with --trace 1, one more repeat under the boundary profiler

Each repeat asks the workload for fresh cells from the seed and, per
cell, resets the plan cache, builds the cluster (set-up), runs the body
(``host_user_s``: user-mode CPU, because wall time on this kind of box
is dominated by bimodal page-fault cost) and checks the outputs
(untimed).  The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
REPRO_DIR = REPO_ROOT / "src" / "repro"
OUT_DIR = LEDGER_DIR / "out"


def usage() -> resource.struct_rusage:
    return resource.getrusage(resource.RUSAGE_SELF)


def gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def spread_pct(values: list[float]) -> float:
    """Interquartile range as a percentage of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return 100.0 * (q3 - q1) / statistics.median(values)


class Repeat:
    """One pass over a workload's cells."""

    def __init__(self):
        self.pre_s = 0.0            # input generation + cluster builds
        self.user_s = self.sys_s = self.wall_s = 0.0
        self.minor_faults = self.gc_collections = 0
        self.cells: list[dict] = []
        self.failures: list[str] = []
        self.ops = 0
        #: What must repeat exactly: per cell, every simulated value and
        #: every registry count the ledger reports.
        self.signature: list = []


def run_repeat(workload: str, seed: int, profile=None) -> Repeat:
    from repro.mpi.flatten import reset_plan_cache
    from spec import REGISTRY_COUNTS, REGISTRY_MAXIMA
    from workloads import cells_for

    names = REGISTRY_COUNTS + REGISTRY_MAXIMA
    repeat = Repeat()
    gc.collect()
    origin = time.perf_counter()
    sim_clock = 0.0
    mark = usage().ru_utime
    for index, cell in enumerate(cells_for(workload, seed)):
        reset_plan_cache()
        cell.build()
        collections = gc_collections()
        wall0, before = time.perf_counter(), usage()
        repeat.pre_s += before.ru_utime - mark
        result = None
        try:
            layers = profile.run(cell.run) if profile else cell.run()
            after, wall1 = usage(), time.perf_counter()
            result = cell.check()
        except Exception as error:  # a raised error is a failed cell
            repeat.failures.append(f"{cell.name}: raised {error!r}")
            repeat.ops += 1
        else:
            repeat.user_s += after.ru_utime - before.ru_utime
            repeat.sys_s += after.ru_stime - before.ru_stime
            repeat.wall_s += wall1 - wall0
            repeat.minor_faults += after.ru_minflt - before.ru_minflt
            repeat.gc_collections += gc_collections() - collections
            repeat.failures += result.failures
            repeat.ops += result.ops
            counts = {name: result.counts[name] for name in names}
            repeat.signature.append([cell.name, result.sim_us,
                                     result.payload_bytes, result.ops,
                                     counts, result.extra])
            repeat.cells.append({
                "id": index, "name": cell.name, "parent": workload,
                "host_start_s": wall0 - origin, "host_end_s": wall1 - origin,
                "sim_start_us": sim_clock,
                "sim_end_us": sim_clock + result.sim_us,
                "payload_bytes": result.payload_bytes, "ops": result.ops,
                "counts": counts, "extra": result.extra,
                **({"layer_self_s": layers} if profile else {}),
            })
            sim_clock += result.sim_us
        # Clusters are cyclic garbage; collecting them here keeps the
        # footprint (and peak_rss_mib) independent of when the
        # generational collector happens to run.
        del cell, result
        gc.collect()
        mark = usage().ru_utime
    repeat.pre_s += usage().ru_utime - mark
    return repeat


def paper_error_pct() -> float:
    """Mean relative error of the calibration anchors, in percent.

    These are the points the cost model was calibrated *to*; the
    held-out shape checks live in ``benchmarks/test_fig*.py``.
    """
    from repro.bench.calibration import TARGETS

    errors = [abs(t.measured() - t.paper_value) / t.paper_value
              for t in TARGETS]
    return 100.0 * sum(errors) / len(errors)


def simulated_metrics(cells: list[dict]) -> tuple[float, float]:
    """(sum of simulated µs, geometric mean of MiB/s) over cells."""
    from repro import to_mib_s

    times = [c["sim_end_us"] - c["sim_start_us"] for c in cells]
    logs = [math.log(to_mib_s(c["payload_bytes"] / t))
            for c, t in zip(cells, times)]
    return sum(times), math.exp(sum(logs) / len(logs))


def aggregate_counts(cells: list[dict]) -> dict[str, float]:
    from spec import REGISTRY_COUNTS, REGISTRY_MAXIMA

    out = {name: sum(c["counts"][name] for c in cells)
           for name in REGISTRY_COUNTS}
    for name in REGISTRY_MAXIMA:
        out[name] = max(c["counts"][name] for c in cells)
    return out


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def kv_metrics(cells: list[dict]) -> dict[str, float]:
    from spec import SIZES

    size = SIZES["kv_overload"]
    out = dict.fromkeys(
        ["kv.arrivals", "kv.served", "kv.shed", "kv.shed_frac",
         "kv.mean_queue_wait_us", "kv.max_sojourn_us",
         "kv.sim_max_rate_ops"], 0.0)
    out.update({f"kv.sim_p99_us.r{rate // 1000}k": 0.0
                for rate in size["rates_ops"]})
    by_rate = {c["name"]: c["extra"] for c in cells if "p99_us" in c["extra"]}
    if not by_rate:
        return out
    for key in ("arrivals", "served", "shed"):
        out[f"kv.{key}"] = sum(e[key] for e in by_rate.values())
    out["kv.shed_frac"] = ratio(out["kv.shed"], out["kv.arrivals"])
    out["kv.mean_queue_wait_us"] = ratio(
        sum(e["queue_wait_sum_us"] for e in by_rate.values()),
        out["kv.served"])
    out["kv.max_sojourn_us"] = max(e["max_sojourn_us"]
                                   for e in by_rate.values())
    for rate in size["rates_ops"]:
        extra = by_rate[f"r{rate // 1000}k"]
        out[f"kv.sim_p99_us.r{rate // 1000}k"] = extra["p99_us"]
        # The highest fixed rate that meets the latency limit without
        # shedding — rates are never calibrated at run time.
        if extra["p99_us"] <= size["p99_limit_us"] and extra["shed"] == 0:
            out["kv.sim_max_rate_ops"] = float(rate)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from spec import MAX_TIMED_REPEATS, MIN_TIMED_REPEATS

    ready_user_s = usage().ru_utime
    cold = run_repeat(workload, seed)
    timed: list[Repeat] = []
    phase = time.perf_counter()
    longest = 0.0
    while len(timed) < MAX_TIMED_REPEATS:
        elapsed = time.perf_counter() - phase
        if len(timed) >= MIN_TIMED_REPEATS and elapsed + longest > seconds:
            break
        t0 = time.perf_counter()
        timed.append(run_repeat(workload, seed))
        longest = max(longest, time.perf_counter() - t0)
    peak_rss_mib = usage().ru_maxrss / 1024.0

    failures = [f for r in [cold] + timed for f in r.failures]
    attempted = sum(r.ops for r in [cold] + timed)
    reference = timed[0]
    for label, other in [("cold", cold)] + [
            (f"timed {i}", r) for i, r in enumerate(timed[1:], 1)]:
        if other.signature != reference.signature:
            failures.append(f"{label} repeat differs from timed repeat 0 "
                            "in a simulated value or registry count")

    user = [r.user_s for r in timed]
    # Disturbance on this kind of box is additive and one-sided (the
    # host backing guest pages shows up as guest *user* time), so the
    # quietest repeat estimates the body's cost; see README.md.
    host_user_s = min(user)
    sim_us, sim_mibs = simulated_metrics(reference.cells)
    end_to_end = {
        "setup_s": ready_user_s + statistics.median(r.pre_s for r in timed),
        "host_user_s": host_user_s,
        "peak_rss_mib": peak_rss_mib,
        "sim_us": sim_us,
        "sim_mibs_geomean": sim_mibs,
        "paper_err_mean_pct": paper_error_pct(),
    }

    counts = aggregate_counts(reference.cells)
    per_layer = dict(counts)
    per_layer.update(kv_metrics(reference.cells))
    hits, misses = counts["plan_cache.hits"], counts["plan_cache.misses"]
    table_hits = counts["engine.fastpath_table_hits"]
    per_layer.update({
        "sim.events_per_host_s": ratio(counts["sim.events"], host_user_s),
        "sim.host_us_per_event": ratio(1e6 * host_user_s,
                                       counts["sim.events"]),
        "plan_cache.hit_ratio": ratio(hits, hits + misses),
        "engine.fastpath_window_chunk_share": ratio(
            counts["engine.fastpath_window_chunks"],
            counts["transport.chunks"]),
        "engine.fastpath_table_hit_ratio": ratio(
            table_hits, table_hits + counts["engine.fastpath_table_misses"]),
        "recovery.retry_ratio": ratio(counts["recovery.retries"],
                                      counts["transport.chunks"]),
        "host.sys_s": statistics.median(r.sys_s for r in timed),
        "host.wall_s": statistics.median(r.wall_s for r in timed),
        "host.minor_faults": statistics.median(r.minor_faults for r in timed),
        "host.gc_collections": statistics.median(
            r.gc_collections for r in timed),
        "bench.ops": reference.ops,
        "bench.cold_over_warm_x": ratio(cold.user_s, host_user_s),
        "bench.repeat_spread_pct": spread_pct(user),
    })

    result = {
        "workload": workload, "seed": seed,
        "timed_repeats": len(timed),
        "host_user_s_quartiles": statistics.quantiles(user, n=4),
        "cold_user_s": cold.user_s,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }

    if trace:
        from layers import LAYERS
        from profiler import LayerProfile

        profile = LayerProfile(f"{REPRO_DIR}/", f"{LEDGER_DIR}/")
        traced = run_repeat(workload, seed, profile)
        failures += traced.failures
        attempted += traced.ops
        # Signatures carry no host values, so this asserts that the
        # observed program ran exactly the unobserved one's simulation
        # (fast path included).
        if traced.signature != reference.signature:
            failures.append("traced repeat differs from the untraced one "
                            "in a simulated value or registry count")
        for layer in LAYERS:
            per_layer[f"{layer}.self_s"] = profile.self_s[layer]
            per_layer[f"{layer}.calls_in"] = profile.calls_in[layer]
        per_layer["bench.trace_overhead_x"] = ratio(traced.user_s,
                                                    host_user_s)
        per_layer["bench.unattributed_pct"] = 100.0 * ratio(
            profile.unattributed_s, profile.wall_s)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace_{workload}.json"
        trace_path.write_text(json.dumps({
            "run": {"name": workload, "seed": seed, "parent": None,
                    "host_start_s": 0.0, "host_end_s": traced.cells[-1][
                        "host_end_s"] if traced.cells else 0.0,
                    "sim_start_us": 0.0, "sim_end_us": sim_us,
                    "traced_user_s": traced.user_s,
                    "untraced_user_s": host_user_s},
            "cells": traced.cells,
            "layers": {layer: {"self_s": profile.self_s[layer],
                               "calls_in": profile.calls_in[layer]}
                       for layer in LAYERS},
            "unattributed_s": profile.unattributed_s,
            "edges": profile.edge_rows(),
        }, indent=1))
        result["trace_file"] = str(trace_path.relative_to(REPO_ROOT))

    per_layer["bench.failed_frac"] = ratio(len(failures), attempted)
    result.update({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures[:20],
    })
    return result


def setup_only(workload: str, seed: int) -> dict:
    """Everything a repeat does before its first body, once."""
    from workloads import cells_for

    for cell in cells_for(workload, seed):
        cell.build()
    return {"setup_s": usage().ru_utime}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPRO_DIR.parent))
    import repro  # noqa: F401  (the program under test)
    import workloads  # noqa: F401  (so set-up pays for the imports)

    if args.setup_only:
        result = setup_only(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
