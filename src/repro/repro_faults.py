"""``repro-faults`` — run the fault-injection differential oracle from the
command line.

For each requested seed the tool runs a reference program on a clean
fabric and again under a seeded :class:`~repro.hardware.sci.faults.FaultPlan`,
then reports the injected faults, the transport's recovery counters, the
recovery time overhead, and whether the delivered payloads were
byte-identical.  Exit status is nonzero if any payload diverged — the same
check CI's fault-matrix job runs via ``pytest -m faults``.

Examples::

    repro-faults                           # all suites, seeds 1-3
    repro-faults --suite osc --seeds 7 8   # one suite, chosen seeds
    repro-faults --transient 0.4 --torn 0.3 --stall 0.2 --trace
    repro-faults --json report.json
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ._units import KiB
from .cluster import Cluster
from .hardware.sci.faults import FaultPlan
from .mpi.datatypes import BYTE, Vector
from .obs.trace import attach_tracer

SUITES = ("pt2pt", "osc", "collectives")


def _pt2pt_program():
    dtype = Vector(3072, 64, 96, BYTE)
    extent = 3072 * 96

    def program(ctx):
        comm = ctx.comm
        dtype.commit()
        buf = ctx.alloc(extent)
        if comm.rank == 0:
            buf.read()[:] = np.arange(extent, dtype=np.uint8) % 251
            yield from comm.send(buf, dest=1, datatype=dtype, count=1)
            return None
        yield from comm.recv(buf, source=0, datatype=dtype, count=1)
        return bytes(buf.read())

    return program, 2


def _osc_program():
    nbytes = 8 * KiB

    def program(ctx):
        comm = ctx.comm
        win = yield from comm.win_create(nbytes, shared=True)
        yield from win.fence()
        if comm.rank == 0:
            for i in range(6):
                data = (np.arange(nbytes, dtype=np.uint8) + i) % 241
                yield from win.put(data, target=1, target_disp=0)
                yield from win.fence()
                yield from win.fence()
            return None
        results = []
        for _ in range(6):
            yield from win.fence()
            results.append(bytes(win.local_view()))
            yield from win.fence()
        return results

    return program, 2


def _collectives_program():
    nbytes = 24 * KiB

    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        if comm.rank == 0:
            buf.read()[:] = np.arange(nbytes, dtype=np.uint8) % 233
        yield from comm.bcast(buf, root=0)
        send = ctx.alloc(2 * KiB)
        send.read()[:] = (np.arange(2 * KiB, dtype=np.uint8) + 31 * comm.rank) % 227
        gathered = ctx.alloc(2 * KiB * comm.size)
        yield from comm.allgather(send, gathered)
        return (bytes(buf.read()), bytes(gathered.read()))

    return program, 4


_PROGRAMS = {
    "pt2pt": _pt2pt_program,
    "osc": _osc_program,
    "collectives": _collectives_program,
}


def _recovery_totals(cluster) -> dict[str, int]:
    totals: dict[str, int] = {}
    for device in cluster.world.devices:
        for key, value in device.recovery.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def run_suite(suite: str, seed: int, args) -> dict:
    """One (suite, seed) cell of the oracle; returns a report dict."""
    program, n_nodes = _PROGRAMS[suite]()
    reference = Cluster(n_nodes=n_nodes).run(program)
    plan = FaultPlan(
        seed=seed,
        transient_rate=args.transient,
        torn_rate=args.torn,
        stall_rate=args.stall,
        unmap_after=args.unmap_after,
    )
    faulty = Cluster(n_nodes=n_nodes, faults=plan)
    tracer = attach_tracer(faulty) if args.trace else None
    run = faulty.run(program)
    report = {
        "suite": suite,
        "seed": seed,
        "ok": run.results == reference.results,
        "faults": dict(plan.counters),
        "recovery": _recovery_totals(faulty),
        "clean_us": reference.elapsed,
        "faulty_us": run.elapsed,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-faults",
        description="Fault-injection differential oracle for the SCI transport.",
    )
    parser.add_argument("--suite", choices=SUITES + ("all",), default="all")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                        help="fault plan seeds to sweep (default: 1 2 3)")
    parser.add_argument("--transient", type=float, default=0.25,
                        help="per-transfer loss probability")
    parser.add_argument("--torn", type=float, default=0.25,
                        help="per-chunk torn-write probability")
    parser.add_argument("--stall", type=float, default=0.15,
                        help="per-chunk receiver stall probability")
    parser.add_argument("--unmap-after", type=int, default=None,
                        help="revoke a segment on the Nth remote access")
    parser.add_argument("--trace", action="store_true",
                        help="include the trace summary per cell")
    parser.add_argument("--json", metavar="PATH",
                        help="write the full report as JSON (- for stdout)")
    args = parser.parse_args(argv)

    suites = SUITES if args.suite == "all" else (args.suite,)
    reports = [run_suite(suite, seed, args)
               for suite in suites for seed in args.seeds]

    # With --json -, stdout carries exactly one JSON document (pipeable
    # into jq / CI checks); the human report moves to stderr.
    report_out = sys.stderr if args.json == "-" else sys.stdout
    failed = 0
    for rep in reports:
        verdict = "ok" if rep["ok"] else "PAYLOAD MISMATCH"
        failed += not rep["ok"]
        faults = " ".join(f"{k}={v}" for k, v in rep["faults"].items() if v)
        recov = " ".join(f"{k}={v}" for k, v in rep["recovery"].items() if v)
        overhead = rep["faulty_us"] / rep["clean_us"] if rep["clean_us"] else 1.0
        print(f"{rep['suite']:<12} seed={rep['seed']:<3} {verdict:<16} "
              f"overhead={overhead:5.2f}x  faults[{faults or 'none'}]  "
              f"recovery[{recov or 'none'}]", file=report_out)
        if args.trace and "trace" in rep:
            print(rep["trace"], file=report_out)

    if args.json:
        payload = json.dumps(reports, indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload)

    print(f"{len(reports)} cells, {failed} failed", file=report_out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
