"""``repro`` — the one command line: ``repro bench | svc | scenarios |
faults | trace`` (README "Command line"; ``python -m repro.cluster.cli``
without installing).  ``repro-trace``, ``repro-faults``, ``repro-svc``,
``repro-scenarios`` and ``python -m repro.bench`` forward to the
subcommand of the same name.

One JSON rule: ``--json PATH`` writes the report to ``PATH``; ``--json -``
writes exactly one JSON document to stdout and the human report to
stderr.  One exit-code rule: 0 ok; 1 an in-run oracle failed; 2 a usage
error — argparse errors, a ``ValueError`` raised while the configs or
the fault plan are built (before the first simulated event), and a
denied QoS reservation.

``trace`` and ``faults`` share :data:`SCENARIOS`: ``trace`` records one
program, ``faults`` runs each on a clean fabric and under a seeded
:class:`~repro.hardware.sci.faults.FaultPlan` and compares the bytes the
programs end with.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

import numpy as np

from .._units import KiB
from ..bench import smoke
from ..bench.__main__ import EXPERIMENTS
from ..hardware.sci.faults import FaultPlan
from ..hardware.sci.topology import TOPOLOGY_NAMES, topology_from_name
from ..mpi.datatypes import BYTE, Vector
from ..mpi.pt2pt.config import DEFAULT_PROTOCOL
from ..obs import attach_tracer, text_timeline, write_chrome_trace
from ..qos import AdmissionDenied
from ..scenarios import (ScenarioParams, canonical, get_scenario,
                         run_scenario, scenario_names)
from ..svc import ServiceConfig, WorkloadSpec, run_service
from ..svc.workload import DISTRIBUTIONS
from .builder import Cluster

__all__ = ["SCENARIOS", "main"]

#: Payload size of the program table when none is given.
DEFAULT_SIZE = 256 * KiB


# -- the program table ---------------------------------------------------------


def _pingpong(size: int, **datatype):
    """Pingpong of a ``size``-byte buffer, whole or as one ``datatype``."""

    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(size)
        if comm.rank == 0:
            buf.read()[:] = np.arange(size, dtype=np.uint8) % 251
            yield from comm.send(buf, dest=1, **datatype)
            yield from comm.recv(buf, source=1, **datatype)
        elif comm.rank == 1:
            yield from comm.recv(buf, source=0, **datatype)
            yield from comm.send(buf, dest=0, **datatype)
        return bytes(buf.read())

    return program, 2


def _noncontig(size: int):
    """Non-contiguous pingpong: a strided Vector there and back."""
    blocks = max(1, size // 64)
    return _pingpong(blocks * 96, count=1,
                     datatype=Vector(blocks, 64, 96, BYTE).commit())


def _osc(size: int):
    """One-sided epoch: direct put, large get (remote-put), accumulate."""

    def program(ctx):
        comm = ctx.comm
        win = yield from comm.win_create(size, shared=True)
        yield from win.fence()
        if comm.rank == 0:
            data = np.arange(size // 2, dtype=np.uint8) % 239
            yield from win.put(data, target=1, target_disp=0)
            yield from win.accumulate(
                np.ones(max(1, size // 256), dtype=np.float64), target=1,
                target_disp=size // 2,
            )
        yield from win.fence()
        got = b""
        if comm.rank == 1:
            got = yield from win.get(size // 2, target=0, target_disp=0)
        yield from win.fence()
        return bytes(win.local_view()) + bytes(got)

    return program, 2


def _collectives(size: int):
    """Broadcast + allgather across the whole cluster."""

    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(size)
        if comm.rank == 0:
            buf.read()[:] = np.arange(size, dtype=np.uint8) % 233
        yield from comm.bcast(buf, root=0)
        piece = max(64, size // 16)
        send = ctx.alloc(piece)
        send.read()[:] = (np.arange(piece, dtype=np.uint8) + comm.rank) % 227
        gathered = ctx.alloc(piece * comm.size)
        yield from comm.allgather(send, gathered)
        return bytes(buf.read()) + bytes(gathered.read())

    return program, 4


#: name -> ``make(size) -> (program, ranks)``; ``ranks`` is both the
#: default cluster size and the fewest nodes the program runs on.
SCENARIOS = {
    "noncontig": _noncontig,
    "pingpong": _pingpong,
    "osc": _osc,
    "collectives": _collectives,
}


# -- subcommands ---------------------------------------------------------------
#
# Each subcommand builds what it needs from the parsed arguments (configs,
# fault plans, clusters; a ValueError there is a usage error) and returns
# ``run(out) -> (document, ok)``: simulate, print the human report to
# ``out``, return the JSON document (or None) and whether the oracles held.


def _bench(args):
    if args.json and not args.smoke:
        raise ValueError("--json requires --smoke")
    if args.smoke:
        if args.experiments:
            raise ValueError("--smoke takes no experiment arguments")

        def run_smoke(out):
            metrics = smoke.run_smoke()
            width = max(len(name) for name in metrics)
            for name, value in metrics.items():
                print(f"{name:<{width}}  {value:12.3f}", file=out)
            return metrics, True

        return run_smoke
    requested = args.experiments or ["all"]
    unknown = [e for e in requested if e != "all" and e not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiment(s): {', '.join(unknown)}")
    selected = list(EXPERIMENTS) if "all" in requested else requested

    def run(out):
        for i, name in enumerate(selected):
            if i:
                print("\n" + "=" * 72 + "\n")
            EXPERIMENTS[name]()
        return None, True

    return run


def _svc(args):
    config = ServiceConfig(
        n_servers=args.servers,
        n_clients=args.clients,
        slots_per_shard=args.slots,
        counter_slots=args.counter_slots,
        qos_reserve=args.qos_reserve,
        workload=WorkloadSpec(
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
        ),
    )
    # A lively but recoverable plan: transient + torn + stall + one unmap.
    faults = None if args.faults_seed is None else FaultPlan(
        seed=args.faults_seed, transient_rate=0.05, torn_rate=0.05,
        stall_rate=0.02, stall_time=500.0, unmap_after=200)

    def run(out):
        report = run_service(config, faults=faults)
        print(f"svc: {args.servers} servers x {args.clients} clients, "
              f"{report['total_ops']} ops ({args.dist}, seed {args.seed}, "
              f"faults {'on' if faults else 'off'})", file=out)
        print(f"  throughput  {report['throughput_ops']:12.1f} ops/s over "
              f"{report['elapsed_us']:.1f} us", file=out)
        for kind in ("read", "write", "incr"):
            row = report["latency_us"][kind]
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
                  f"reserved_xfers={counters['reserved_transfers']}",
                  file=out)
        verdict = "verified" if report["verified"] else "COUNTER MISMATCH"
        print(f"  counters: {report['counters_checked']} checked, {verdict}",
              file=out)
        return canonical(report), report["verified"]

    return run


def _scenarios(args):
    if args.list:  # simulates nothing
        for name in scenario_names():
            print(f"{name:<16} {get_scenario(name).description}")
        return lambda out: (None, True)
    names = scenario_names() if args.all else args.scenarios
    if not names:
        raise ValueError("no scenarios given (name some, or use --all / --list)")
    cells = [(name, ScenarioParams(seed=seed, ranks=args.ranks,
                                   steps=args.steps, scale=args.scale,
                                   faults=args.faults))
             for name in names for seed in args.seeds or [1]]
    for name, params in cells:  # unknown names, impossible shapes
        get_scenario(name).resolve(params)
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)

    def run(out):
        reports, failed = [], 0
        for name, params in cells:
            cell = run_scenario(name, params)
            report = cell.report
            reports.append(report)
            ok = report["verified"] and report["invariants_ok"]
            failed += not ok
            label = (f"{name}-s{params.seed}-"
                     f"{'faulty' if params.faults else 'clean'}")
            metric, value = next(iter(report["headline"].items()))
            print(f"{label}: {'ok' if ok else 'FAILED'}  {metric}={value:.2f}  "
                  f"elapsed={report['elapsed_us']:.1f} us  "
                  f"faults={report['faults']['injected']:.0f}", file=out)
            if args.trace_dir:
                path = os.path.join(args.trace_dir, label + ".trace.json")
                write_chrome_trace(cell.tracer, path, other_data={
                    "scenario": name, "seed": params.seed})
                print(f"  trace -> {path}", file=out)
        print(f"{len(reports)} cells, {len(reports) - failed} ok, "
              f"{failed} failed", file=out)
        return canonical({"cells": reports}), not failed

    return run


def _faults(args):
    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    # Every plan is built (and validated) before anything is simulated.
    cells = [(name, seed, FaultPlan(seed=seed, transient_rate=args.transient,
                                    torn_rate=args.torn, stall_rate=args.stall,
                                    unmap_after=args.unmap_after))
             for name in names for seed in args.seeds]

    def run(out):
        reports = []
        for name, seed, plan in cells:
            program, n_nodes = SCENARIOS[name](DEFAULT_SIZE)
            clean = Cluster(n_nodes=n_nodes).run(program)
            faulty = Cluster(n_nodes=n_nodes, faults=plan)
            tracer = attach_tracer(faulty) if args.trace else None
            result = faulty.run(program)
            snap = faulty.metrics.snapshot()
            rep = {
                "scenario": name,
                "seed": seed,
                "ok": result.results == clean.results,
                "faults": _family(snap, "faults"),
                "recovery": _family(snap, "recovery"),
                "clean_us": clean.elapsed,
                "faulty_us": result.elapsed,
            }
            reports.append(rep)
            verdict = "ok" if rep["ok"] else "PAYLOAD MISMATCH"
            faults = " ".join(f"{k}={v}" for k, v in rep["faults"].items() if v)
            recov = " ".join(f"{k}={v}" for k, v in rep["recovery"].items() if v)
            print(f"{name:<12} seed={seed:<3} {verdict:<16} "
                  f"overhead={result.elapsed / clean.elapsed:5.2f}x  "
                  f"faults[{faults or 'none'}]  "
                  f"recovery[{recov or 'none'}]", file=out)
            if tracer is not None:
                rep["trace"] = tracer.summary()
                print(rep["trace"], file=out)
        failed = sum(not rep["ok"] for rep in reports)
        print(f"{len(reports)} cells, {failed} failed", file=out)
        return reports, not failed

    return run


def _family(snapshot: dict, prefix: str) -> dict:
    """``prefix.*`` entries of a metrics snapshot, keyed without the prefix."""
    return {name.partition(".")[2]: value for name, value in snapshot.items()
            if name.startswith(prefix + ".")}


def _trace(args):
    least = 16 if args.scenario == "osc" else 0  # 8 B accumulate at size // 2
    if args.size < least:
        raise ValueError(f"--scenario {args.scenario} needs --size >= {least}, "
                         f"got {args.size}")
    program, ranks = SCENARIOS[args.scenario](args.size)
    n_nodes = args.nodes or ranks
    if n_nodes < ranks:
        raise ValueError(f"--scenario {args.scenario} runs on >= {ranks} "
                         f"nodes, got --nodes {n_nodes}")
    faults = None if args.faults_seed is None else FaultPlan(
        seed=args.faults_seed, transient_rate=0.2, torn_rate=0.2,
        stall_rate=0.1)
    cluster = Cluster(
        n_nodes=n_nodes, faults=faults,
        protocol=(DEFAULT_PROTOCOL.with_mode(args.mode) if args.mode
                  else DEFAULT_PROTOCOL),
        topology=(topology_from_name(args.topology, n_nodes)
                  if args.topology else None))
    tracer = attach_tracer(cluster)

    def run(out):
        cluster.run(program)
        other_data = {
            "scenario": args.scenario,
            "size": args.size,
            "nodes": cluster.n_ranks,
            "mode": args.mode or cluster.world.config.noncontig_mode,
            "topology": cluster.fabric.topology.describe(),
        }
        if faults is not None:
            other_data["fault_plan"] = faults.as_dict()
        write_chrome_trace(tracer, args.trace, other_data=other_data)
        registry = cluster.metrics
        with open(args.metrics, "w") as fh:
            fh.write(registry.to_json() + "\n")
        if not args.no_timeline:
            print(text_timeline(tracer), file=sys.stderr)
        print(f"trace:   {args.trace} ({len(tracer.events)} events)", file=out)
        print(f"metrics: {args.metrics} ({len(registry.names())} metrics)",
              file=out)
        return None, True

    return run


# -- the parser ----------------------------------------------------------------


def _seed(text: str) -> int:
    """argparse type of every seed flag: a non-negative integer."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulated SCI cluster: paper figures, services, "
                    "scenarios, fault oracle and traces.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, build, description):
        sub = subs.add_parser(name, help=description, description=description)
        sub.set_defaults(build=build, parser=sub)
        return sub

    def json_flag(sub):
        sub.add_argument("--json", metavar="PATH",
                         help="write the report as JSON to PATH ('-': stdout, "
                              "with the human report on stderr)")

    sub = command("bench", _bench,
                  "Regenerate the paper's tables and figures.")
    sub.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                     help=f"which experiments to run: {', '.join(EXPERIMENTS)}"
                          ", or 'all' (default: all)")
    sub.add_argument("--smoke", action="store_true",
                     help="run only the CI smoke metrics (seconds, "
                          "deterministic) instead of the figure suite")
    json_flag(sub)

    sub = command("svc", _svc,
                  "RMA-backed sharded key-value service benchmark "
                  "(passive servers, one-sided clients).")
    for flag, kind, default, text in (
        ("--servers", int, 2, "server (shard) ranks"),
        ("--clients", int, 2, "client ranks"),
        ("--slots", int, 64, "slots per shard"),
        ("--counter-slots", int, 16, "slots per shard reserved for counters"),
        ("--keys", int, 64, "distinct blob keys"),
        ("--counter-keys", int, 16, "distinct counter ids"),
        ("--value-size", int, 64, "value bytes per key"),
        ("--ops", int, 100, "operations per client"),
        ("--read-frac", float, 0.5, "fraction of ops that are reads"),
        ("--incr-frac", float, 0.2,
         "fraction of ops that are counter increments"),
        ("--zipf-s", float, 1.1, "Zipf exponent for --dist zipfian"),
        ("--think-time", float, 0.0, "client pause between ops in µs"),
        ("--seed", _seed, 1, "workload seed"),
    ):
        sub.add_argument(flag, type=kind, default=default,
                         help=f"{text} (default: {default})")
    sub.add_argument("--dist", choices=DISTRIBUTIONS, default="uniform",
                     help="key popularity distribution (default: uniform)")
    sub.add_argument("--qos-reserve", type=float, default=0.0, metavar="SHARE",
                     help="reserve this fraction of the tightest "
                          "client->server path for the service tenant "
                          "(clients run reserved-lane, policed to that "
                          "rate; default: 0 = no QoS)")
    sub.add_argument("--faults-seed", type=_seed, default=None,
                     help="install a seeded fault plan (transient + torn "
                          "+ stall + one segment unmap)")
    json_flag(sub)

    sub = command("scenarios", _scenarios,
                  "Seeded end-to-end application scenarios over the "
                  "simulated SCI cluster (the regression matrix).")
    sub.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                     help="scenario names to run (see --list)")
    sub.add_argument("--all", action="store_true",
                     help="run every registered scenario")
    sub.add_argument("--list", action="store_true",
                     help="list scenarios and exit")
    sub.add_argument("--seed", dest="seeds", type=_seed, action="append",
                     metavar="N",
                     help="workload seed; repeat for several (default: 1)")
    for flag, kind, default, text in (
            ("--ranks", int, 0, "rank count override (0 = scenario default)"),
            ("--steps", int, 0, "step/round override (0 = scenario default)"),
            ("--scale", float, 1.0, "problem-size multiplier (default: 1.0)")):
        sub.add_argument(flag, type=kind, default=default, help=text)
    sub.add_argument("--faults", action="store_true",
                     help="install each cell's canonical fault plan")
    json_flag(sub)
    sub.add_argument("--trace-dir", metavar="DIR",
                     help="write a Perfetto trace per cell into DIR")

    sub = command("faults", _faults,
                  "Fault-injection differential oracle: each program on a "
                  "clean fabric and under a seeded fault plan, payloads "
                  "compared.")
    sub.add_argument("--scenario", choices=(*SCENARIOS, "all"), default="all",
                     help="program of the table to run (default: all)")
    sub.add_argument("--seeds", type=_seed, nargs="+", default=[1, 2, 3],
                     help="fault plan seeds to sweep (default: 1 2 3)")
    for flag, default, text in (
            ("--transient", 0.25, "per-transfer loss probability"),
            ("--torn", 0.25, "per-chunk torn-write probability"),
            ("--stall", 0.15, "per-chunk receiver stall probability")):
        sub.add_argument(flag, type=float, default=default, help=text)
    sub.add_argument("--unmap-after", type=int, default=None,
                     help="revoke a segment on the Nth remote access")
    sub.add_argument("--trace", action="store_true",
                     help="include the trace summary per cell")
    json_flag(sub)

    sub = command("trace", _trace,
                  "Run a program of the table and export trace.json + "
                  "metrics.json.")
    sub.add_argument("--scenario", choices=sorted(SCENARIOS),
                     default="noncontig")
    sub.add_argument("--size", type=int, default=DEFAULT_SIZE,
                     help="payload size in bytes (default: 256 KiB)")
    sub.add_argument("--nodes", type=int, default=0,
                     help="cluster size (default: the program's own)")
    sub.add_argument("--mode", choices=("generic", "direct", "auto", "dma"),
                     default="", help="non-contiguous transfer technique")
    sub.add_argument("--faults-seed", type=_seed, default=None,
                     help="install a seeded FaultPlan (recovery spans "
                          "and fault events appear in the timeline)")
    sub.add_argument("--topology", choices=TOPOLOGY_NAMES, default="",
                     help="fabric topology sized for the cluster "
                          "(default: single ring); per-ringlet and "
                          "per-switch tracks appear in the trace")
    sub.add_argument("--trace", metavar="PATH", default="trace.json",
                     help="Chrome trace_event output (default: trace.json)")
    sub.add_argument("--metrics", metavar="PATH", default="metrics.json",
                     help="metrics snapshot output (default: metrics.json)")
    sub.add_argument("--no-timeline", action="store_true",
                     help="skip the terminal text timeline")
    return parser


def main(argv=None) -> int:
    """Run ``repro``; returns the exit status (0 ok, 1 oracle failed)."""
    args = _parser().parse_args(argv)
    try:
        run = args.build(args)
    except ValueError as exc:
        args.parser.error(str(exc))
    json_path = getattr(args, "json", None)
    try:
        document, ok = run(sys.stderr if json_path == "-" else sys.stdout)
    except AdmissionDenied as exc:
        args.parser.error(str(exc))
    if json_path and document is not None:
        text = json.dumps(document, indent=2) + "\n"
        if json_path == "-":
            sys.stdout.write(text)
        else:
            with open(json_path, "w") as fh:
                fh.write(text)
    return 0 if ok else 1


def _forward(command: str, argv=None) -> int:
    return main([command, *(sys.argv[1:] if argv is None else argv)])


# The historical script names, one forwarding line each.
bench_main = partial(_forward, "bench")
faults_main = partial(_forward, "faults")
scenarios_main = partial(_forward, "scenarios")
svc_main = partial(_forward, "svc")
trace_main = partial(_forward, "trace")


if __name__ == "__main__":
    sys.exit(main())
