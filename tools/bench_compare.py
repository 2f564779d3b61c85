#!/usr/bin/env python3
"""Compare a smoke-benchmark run against the committed baseline.

Usage::

    python tools/bench_compare.py benchmarks/BENCH_baseline.json BENCH_ci.json
    python tools/bench_compare.py baseline.json current.json --tolerance 0.1

The metric name's suffix carries the comparison direction (the
convention set by :mod:`repro.bench.smoke`);
:data:`DIRECTIONS` is the authoritative suffix table:

* ``*_us``      — simulated microseconds, lower is better; a regression
  is the current value exceeding baseline by more than the tolerance;
* ``*_mibs``    — MiB/s, higher is better; a regression is the current
  value falling below baseline by more than the tolerance;
* ``*_ops``     — service operations per second, higher is better;
* ``*_x``       — a speedup ratio, higher is better;
* ``*_availability`` — a served-time fraction in [0, 1], higher is
  better;
* anything else — direction unknown; a regression is the relative
  difference exceeding the tolerance either way.

A move beyond the tolerance in the better direction fails too, as
``moved``: a gauge that changed is not gated by a stale baseline, so the
baseline must be regenerated on purpose, in the change that moves it.

Exit status: 0 if every baseline metric is present and within tolerance,
1 otherwise.  Metrics present only in the current run are reported but
never fail the comparison (they become regressions only once a new
baseline is committed).
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_TOLERANCE = 0.20

#: Metric-name suffix -> comparison direction.  ``lower`` means a larger
#: current value is the regression (simulated time); ``higher`` means a
#: smaller one is (throughput, bandwidth, speedup).  Longest suffix wins.
DIRECTIONS = {
    "_us": "lower",
    "_mibs": "higher",
    "_ops": "higher",
    "_x": "higher",
    "_availability": "higher",
}


def direction(name: str) -> str | None:
    """The comparison direction of metric ``name`` (``lower`` /
    ``higher``), or ``None`` when no :data:`DIRECTIONS` suffix matches."""
    for suffix in sorted(DIRECTIONS, key=len, reverse=True):
        if name.endswith(suffix):
            return DIRECTIONS[suffix]
    return None


def classify(name: str, baseline: float, current: float,
             tolerance: float) -> tuple[str, float]:
    """Return ``(verdict, rel)`` where verdict is ``ok``, ``regression``
    (worse beyond the tolerance) or ``moved`` (better beyond it) and
    ``rel`` is the signed relative change (positive = current is
    larger)."""
    if baseline == 0:
        rel = 0.0 if current == 0 else float("inf")
    else:
        rel = (current - baseline) / abs(baseline)
    sense = direction(name)
    if abs(rel) <= tolerance:
        return "ok", rel
    if sense is None or (rel > 0) == (sense == "lower"):
        return "regression", rel
    return "moved", rel


def compare(baseline: dict, current: dict,
            tolerance: float = DEFAULT_TOLERANCE) -> tuple[list[str], bool]:
    """Diff two metric dicts; returns (report lines, any_regression)."""
    lines = []
    failed = moved = False
    width = max((len(k) for k in {**baseline, **current}), default=1)
    for name, base_value in baseline.items():
        if name not in current:
            lines.append(f"{name:<{width}}  MISSING from current run")
            failed = True
            continue
        verdict, rel = classify(name, base_value, current[name], tolerance)
        failed |= verdict != "ok"
        moved |= verdict == "moved"
        lines.append(
            f"{name:<{width}}  {base_value:12.3f} -> {current[name]:12.3f} "
            f"({rel:+7.1%})  {verdict}"
        )
    for name in current:
        if name not in baseline:
            lines.append(f"{name:<{width}}  {current[name]:12.3f}  "
                         "new metric (not in baseline)")
    if moved:
        lines.append("a gauge moved: regenerate the baseline on purpose")
    return lines, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="fresh smoke-run JSON")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed relative regression (default: 0.20)")
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.current) as fh:
        current = json.load(fh)

    lines, failed = compare(baseline, current, args.tolerance)
    print(f"bench compare (tolerance {args.tolerance:.0%}):")
    for line in lines:
        print(f"  {line}")
    print("RESULT: " + ("REGRESSION" if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
