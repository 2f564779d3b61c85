#!/usr/bin/env python3
"""Interleaved base/change pairs of the two-clock ledger benchmark.

Usage::

    python tools/ledger_pairs.py origin/main --workload rndv_stream
    python tools/ledger_pairs.py /path/to/a/checkout --pairs 12 --seed 7

``BASE`` is a git ref — its merge base with ``HEAD`` is exported into a
temporary directory — or a directory that already holds a checkout.  Per
pair and workload each side runs its own ``benchmarks/ledger/run.py
--workload W --seed S`` (fresh child processes, user CPU, see
``benchmarks/ledger/README.md``); odd pairs run the change first, so a
drifting machine hurts both sides alike.

For every end-to-end metric of ``BENCHMARK.json`` the report gives both
medians with their quartiles, the pairs each side won, every run of the
metrics that vary, and a verdict against the metric's bound:

* ``ok`` — the change's median is no worse than the base's by more than
  the bound;
* ``regression`` — it is, and both sides' run-to-run spread (quartile
  distance over median) is within the bound, so the difference is real;
* ``unresolved`` — a side's spread exceeds the bound: the runs cannot
  tell, which is not the same as unchanged;
* ``gain`` — the change won at least nine tenths of the pairs (ties count
  for neither side) and its median beats the base's by more than the
  base's own quartile distance: the only verdict a claimed gain can cite.

Markdown goes to stdout (paste it into EXPERIMENTS.md), progress to
stderr.  Exit status: 1 on a ``regression`` or when a larger share of
operations failed on the change, 2 when a run could not be made,
0 otherwise — ``unresolved`` never fails the lane on its own.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUN_PY = Path("benchmarks") / "ledger" / "run.py"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def worse_by(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, relative to ``base``
    (negative: better)."""
    delta = change - base if better == "lower" else base - change
    if delta == 0:
        return 0.0
    return delta / abs(base) if base else math.copysign(math.inf, delta)


def summarise(base_runs: list[dict], change_runs: list[dict],
              end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric from the paired contract objects
    (``run.py``'s last stdout line) of one workload."""
    rows = []
    for spec in end_to_end:
        name, better, bound = spec["name"], spec["better"], spec["bound"]
        base = [run["metrics"][name]["value"] for run in base_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        b_q, c_q = quartiles(base), quartiles(change)
        spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
                     for q in (b_q, c_q))
        worse = worse_by(b_q[1], c_q[1], better)
        gains = [worse_by(b, c, better) for b, c in zip(base, change)]
        wins = sum(g < 0 for g in gains)
        beats_by = b_q[1] - c_q[1] if better == "lower" else c_q[1] - b_q[1]
        if 10 * wins >= 9 * len(gains) and beats_by > b_q[2] - b_q[0]:
            verdict = "gain"
        elif spread > bound:
            verdict = "unresolved"
        else:
            verdict = "regression" if worse > bound else "ok"
        rows.append({
            "name": name, "unit": spec["unit"], "bound": bound,
            "base": b_q, "change": c_q, "worse": worse, "spread": spread,
            "runs": (base, change),
            "wins": wins,
            "losses": sum(g > 0 for g in gains),
            "verdict": verdict,
        })
    return rows


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def render_markdown(workload: str, seed: int, rows: list[dict],
                    base_failed: float, change_failed: float) -> str:
    lines = [
        f"#### `{workload}`, seed {seed}",
        "",
        "| metric | unit | base median (q1 – q3) | change median (q1 – q3) "
        "| change worse by | change wins / loses | bound | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        (b1, b2, b3), (c1, c2, c3) = row["base"], row["change"]
        lines.append(
            f"| `{row['name']}` | {row['unit']} "
            f"| {b2:.6g} ({b1:.6g} – {b3:.6g}) "
            f"| {c2:.6g} ({c1:.6g} – {c3:.6g}) "
            f"| {row['worse']:+.1%} | {row['wins']} / {row['losses']} "
            f"| {row['bound']:.0%} | {row['verdict']} |")
    lines.append("")
    for row in rows:
        base, change = row["runs"]
        if len(set(base + change)) > 1:  # exact metrics: the table says it all
            lines.append(f"Every `{row['name']}` run in pair order — base: "
                         + " ".join(f"{v:.6g}" for v in base) + "; change: "
                         + " ".join(f"{v:.6g}" for v in change) + ".")
    lines += ["", f"Failed-operation share: base {base_failed:.4%}, "
                  f"change {change_failed:.4%}.", ""]
    return "\n".join(lines)


def run_side(side: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=side, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"{side}: run.py --workload {workload} exited "
            f"{done.returncode} without a result:\n{done.stderr.strip()}"
        ) from None


def export_merge_base(ref: str, into: Path) -> str:
    """Export the merge base of ``ref`` and ``HEAD`` into ``into``."""
    def git(*args: str) -> bytes:
        done = subprocess.run(["git", "-C", str(REPO), *args],
                              capture_output=True)
        if done.returncode != 0:
            raise RuntimeError(f"git {' '.join(args)}: "
                               f"{done.stderr.decode(errors='replace').strip()}")
        return done.stdout

    commit = git("merge-base", ref, "HEAD").decode().strip()
    subprocess.run(["tar", "-x", "-C", str(into)],
                   input=git("archive", commit), check=True)
    return commit


def measure(base: Path, workloads: list[str], pairs: int, seed: int,
            contract: dict) -> tuple[str, bool]:
    """Run the pairs; returns (markdown, failed)."""
    seconds = contract["run_seconds"]
    runs = {w: ([], []) for w in workloads}
    for pair in range(pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for workload in workloads:
            for side in order:
                print(f"pair {pair + 1}/{pairs} {workload} "
                      f"{('base', 'change')[side]}", file=sys.stderr)
                runs[workload][side].append(
                    run_side((base, REPO)[side], workload, seed, seconds))
    sections, failed = [], False
    for workload, (base_runs, change_runs) in runs.items():
        rows = summarise(base_runs, change_runs, contract["end_to_end"])
        shares = failed_share(base_runs), failed_share(change_runs)
        failed |= shares[1] > shares[0]
        failed |= any(row["verdict"] == "regression" for row in rows)
        sections.append(render_markdown(workload, seed, rows, *shares))
    return "\n".join(sections), failed


def main(argv=None) -> int:
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", metavar="BASE",
                        help="git ref (its merge base with HEAD is "
                             "measured) or a directory holding a checkout")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload of "
                             "BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or names

    try:
        with tempfile.TemporaryDirectory(prefix="ledger-base-") as scratch:
            if Path(args.base).is_dir():
                base, label = Path(args.base).resolve(), args.base
            else:
                base = Path(scratch)
                label = export_merge_base(args.base, base)[:12]
            print(f"### Ledger pairs: base `{label}` against the working "
                  f"tree, {args.pairs} interleaved pairs\n")
            report, failed = measure(base, workloads, args.pairs, args.seed,
                                     contract)
    except (RuntimeError, subprocess.CalledProcessError) as error:
        print(f"ledger_pairs: {error}", file=sys.stderr)
        return 2
    print(report)
    print("RESULT: " + ("REGRESSION" if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
