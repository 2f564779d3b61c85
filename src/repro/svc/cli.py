"""``repro-svc`` — run the RMA key-value service benchmark from the CLI.

Runs :func:`~repro.svc.driver.run_service` with a workload assembled from
the flags, prints a human summary, and optionally emits the full report
as JSON.  The run is a seeded discrete-event simulation: for a given flag
set the JSON report is *bit-identical* across invocations — CI's
``svc-smoke`` leg re-runs cells twice and diffs the bytes.

Examples::

    repro-svc                                    # default cell
    repro-svc --dist zipfian --zipf-s 1.2        # skewed keys
    repro-svc --clients 4 --servers 2 --ops 200  # more load
    repro-svc --faults-seed 7 --json -           # faulty run, JSON to stdout

With ``--json -`` stdout carries exactly one JSON document (pipeable into
``jq``); the human summary moves to stderr.  Exit status: 0 verified,
1 the in-run counter verification failed, 2 the flags describe no valid
service (one line on stderr) or the QoS reservation was denied.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..hardware.sci.faults import FaultPlan
from ..qos import AdmissionDenied
from .driver import ServiceConfig, run_service
from .workload import DISTRIBUTIONS, WorkloadSpec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-svc",
        description="RMA-backed sharded key-value service benchmark "
                    "(passive servers, one-sided clients).",
    )
    parser.add_argument("--servers", type=int, default=2,
                        help="server (shard) ranks (default: 2)")
    parser.add_argument("--clients", type=int, default=2,
                        help="client ranks (default: 2)")
    parser.add_argument("--slots", type=int, default=64,
                        help="slots per shard (default: 64)")
    parser.add_argument("--counter-slots", type=int, default=16,
                        help="slots per shard reserved for counters "
                             "(default: 16)")
    parser.add_argument("--keys", type=int, default=64,
                        help="distinct blob keys (default: 64)")
    parser.add_argument("--counter-keys", type=int, default=16,
                        help="distinct counter ids (default: 16)")
    parser.add_argument("--value-size", type=int, default=64,
                        help="value bytes per key (default: 64)")
    parser.add_argument("--ops", type=int, default=100,
                        help="operations per client (default: 100)")
    parser.add_argument("--read-frac", type=float, default=0.5,
                        help="fraction of ops that are reads (default: 0.5)")
    parser.add_argument("--incr-frac", type=float, default=0.2,
                        help="fraction of ops that are counter increments "
                             "(default: 0.2)")
    parser.add_argument("--dist", choices=DISTRIBUTIONS, default="uniform",
                        help="key popularity distribution (default: uniform)")
    parser.add_argument("--zipf-s", type=float, default=1.1,
                        help="Zipf exponent for --dist zipfian (default: 1.1)")
    parser.add_argument("--think-time", type=float, default=0.0,
                        help="client pause between ops in µs (default: 0)")
    parser.add_argument("--qos-reserve", type=float, default=0.0,
                        metavar="SHARE",
                        help="reserve this fraction of the tightest "
                             "client->server path for the service tenant "
                             "(clients run reserved-lane, policed to that "
                             "rate; default: 0 = no QoS)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default: 1)")
    parser.add_argument("--faults-seed", type=int, default=None,
                        help="install a seeded fault plan (transient + torn "
                             "+ stall + one segment unmap)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the full report as JSON (- for stdout)")
    return parser


def _fault_plan(seed: int) -> FaultPlan:
    """The CLI's canonical lively-but-recoverable fault plan."""
    return FaultPlan(seed=seed, transient_rate=0.05, torn_rate=0.05,
                     stall_rate=0.02, stall_time=500.0, unmap_after=200)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = WorkloadSpec(
            n_keys=args.keys,
            n_counter_keys=args.counter_keys,
            read_fraction=args.read_frac,
            incr_fraction=args.incr_frac,
            dist=args.dist,
            zipf_s=args.zipf_s,
            ops_per_client=args.ops,
            value_size=args.value_size,
            seed=args.seed,
            think_time=args.think_time,
        )
        config = ServiceConfig(
            n_servers=args.servers,
            n_clients=args.clients,
            slots_per_shard=args.slots,
            counter_slots=args.counter_slots,
            qos_reserve=args.qos_reserve,
            workload=spec,
        )
    except ValueError as exc:  # the configs validate the whole shape
        parser.error(str(exc))
    faults = _fault_plan(args.faults_seed) if args.faults_seed is not None else None
    try:
        report = run_service(config, faults=faults)
    except AdmissionDenied as exc:
        print(f"repro-svc: {exc}", file=sys.stderr)
        return 2

    # With --json -, stdout carries exactly one JSON document; the human
    # summary moves to stderr.
    out = sys.stderr if args.json == "-" else sys.stdout
    lat = report["latency_us"]
    print(f"svc: {args.servers} servers x {args.clients} clients, "
          f"{report['total_ops']} ops ({args.dist}, seed {args.seed}, "
          f"faults {'on' if faults else 'off'})", file=out)
    print(f"  throughput  {report['throughput_ops']:12.1f} ops/s over "
          f"{report['elapsed_us']:.1f} us", file=out)
    for kind in ("read", "write", "incr"):
        row = lat[kind]
        print(f"  {kind:<6} n={row['count']:<5.0f} "
              f"p50={row['p50']:8.2f}  p95={row['p95']:8.2f}  "
              f"p99={row['p99']:8.2f} us", file=out)
    print(f"  shards: ops={report['shards']['ops']:.0f} "
          f"hot={report['shards']['hot']:.0f} "
          f"imbalance={report['shards']['imbalance']:.2f}", file=out)
    print(f"  faults: injected={report['faults']['injected']:.0f} "
          f"fallbacks={report['faults']['fallbacks']:.0f}", file=out)
    if "qos" in report:
        counters = report["qos"]["counters"]
        print(f"  qos: reserve={args.qos_reserve:.2f} "
              f"policed={counters['policed_transfers']} "
              f"reserved_xfers={counters['reserved_transfers']}", file=out)
    verdict = "verified" if report["verified"] else "COUNTER MISMATCH"
    print(f"  counters: {report['counters_checked']} checked, {verdict}",
          file=out)

    if args.json:
        payload = json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload)

    return 0 if report["verified"] else 1


if __name__ == "__main__":
    sys.exit(main())
