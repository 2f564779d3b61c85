"""Two-clock ledger benchmark: the one command.

    python3 benchmarks/ledger/run.py                       # all 7, seed 1
    python3 benchmarks/ledger/run.py --workload sparse_put --seed 3
    python3 benchmarks/ledger/run.py --trace               # + per-layer run
    python3 benchmarks/ledger/run.py --check-repeat        # two sets, compared

Workloads run one after another, never concurrently (the reference box
has two cores), each in a fresh child process (``child.py``).  Every
metric is printed by name with its unit, outputs are verified on every
repeat, and the exit code is non-zero on any failed operation.

With ``--workload`` the last stdout line is the one JSON object the
benchmark contract asks for: ``--trace 0`` carries every end-to-end
metric, ``--trace 1`` every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR))

from spec import END_TO_END, PER_LAYER, SETUP_SAMPLES, WORKLOADS  # noqa: E402

#: A child that has not finished by then is killed; the contract allows
#: a run 180 s.
CHILD_TIMEOUT_S = 150

#: Measurement hygiene for the children, not switches of the program:
#: a fixed hash seed removes one per-process source of host-time spread,
#: and without numpy's hugepage advice peak RSS counts the pages the
#: program touched instead of the 2 MiB pages the kernel happened to
#: have (215 MiB every time against 489-647 MiB on collective_scale).
CHILD_ENV = {"PYTHONHASHSEED": "0", "NUMPY_MADVISE_HUGEPAGE": "0"}


class ChildFailed(RuntimeError):
    pass


def child(workload: str, seed: int, *extra: str) -> dict:
    """Run ``child.py`` to completion and return its JSON result."""
    command = [sys.executable, str(LEDGER_DIR / "child.py"),
               "--workload", workload, "--seed", str(seed), *extra]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S,
                          env={**os.environ, **CHILD_ENV})
    if done.returncode != 0:
        raise ChildFailed(f"{' '.join(command)} exited {done.returncode}:\n"
                          f"{done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One measured run: the measuring child, then the set-up samples."""
    result = child(workload, seed, "--seconds", str(seconds),
                   "--trace", str(int(trace)))
    samples = [result["end_to_end"]["setup_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(child(workload, seed, "--setup-only")["setup_s"])
    result["setup_s_samples"] = samples
    result["end_to_end"]["setup_s"] = statistics.median(samples)
    return result


def contract_line(result: dict, trace: bool) -> str:
    table, values = ((PER_LAYER, result["per_layer"]) if trace
                     else (END_TO_END, result["end_to_end"]))
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": table[name][0]}
                    for name in table},
    })


def print_result(result: dict, trace: bool) -> None:
    workload = result["workload"]
    print(f"== {workload}  seed {result['seed']}  "
          f"{result['timed_repeats']} timed repeats  "
          f"{'CORRECT' if result['correct'] else 'FAILED'} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for failure in result["failures"]:
        print(f"   ! {failure}")
    q1, q2, q3 = result["host_user_s_quartiles"]
    print(f"   body user CPU over the timed repeats: quartiles {q1:.4f} / "
          f"{q2:.4f} / {q3:.4f} s, cold {result['cold_user_s']:.4f} s")
    print("   set-up samples: "
          + " ".join(f"{s:.4f}" for s in result["setup_s_samples"]) + " s")
    for name, (unit, better, bound) in END_TO_END.items():
        print(f"   {name:36s} {result['end_to_end'][name]:16.6f} {unit:6s} "
              f"({better} is better, bound {bound:.0%})")
    for name, (unit, _) in PER_LAYER.items():
        if name in result["per_layer"]:
            print(f"   {name:36s} {result['per_layer'][name]:16.6f} {unit}")
    if trace:
        print(f"   trace written to {result['trace_file']}")


def check_repeat(seed: int, seconds: float, workloads: list[str]) -> bool:
    """Two untraced sets of the same code; do they agree within bounds?"""
    sets = [{w: run_workload(w, seed, seconds, False) for w in workloads}
            for _ in range(2)]
    agree = True
    print(f"{'workload':18s} {'metric':20s} {'first':>16s} {'second':>16s} "
          f"{'diff':>8s} {'bound':>6s}")
    for workload in workloads:
        first, second = (s[workload] for s in sets)
        agree &= first["correct"] and second["correct"]
        for name, (_, better, bound) in END_TO_END.items():
            a, b = (r["end_to_end"][name] for r in (first, second))
            worse = (b - a) / a if better == "lower" else (a - b) / a
            ok = abs(worse) <= bound
            agree &= ok
            print(f"{workload:18s} {name:20s} {a:16.6f} {b:16.6f} "
                  f"{worse:+8.2%} {bound:6.0%}{'' if ok else '  DISAGREE'}")
        spreads = [r["per_layer"]["bench.repeat_spread_pct"]
                   for r in (first, second)]
        print(f"{workload:18s} {'repeat_spread_pct':20s} "
              f"{spreads[0]:16.3f} {spreads[1]:16.3f}")
    return agree


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and end with the contract's "
                             "JSON line (default: all seven)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="wall budget of the timed repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="add the profiled repeat and report per-layer "
                             "metrics")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the untraced set twice and compare")
    args = parser.parse_args(argv)

    if not (LEDGER_DIR.parents[1] / "src" / "repro").is_dir():
        print("ledger: src/repro not found beside benchmarks/ — nothing to "
              "measure", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.check_repeat:
            return 0 if check_repeat(args.seed, args.seconds, workloads) else 1
        trace = bool(args.trace)
        correct = True
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, trace)
            print_result(result, trace)
            correct &= result["correct"]
        if args.workload:
            print(contract_line(result, trace))
    except (ChildFailed, subprocess.TimeoutExpired) as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
