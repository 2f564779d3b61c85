"""Regenerate every table and figure of the paper from the command line::

    repro bench            # everything
    repro bench fig7 tab2  # selected experiments

Prints the paper-shaped series/tables; the same code paths the pytest
benchmarks run, without the benchmark harness.
"""

from __future__ import annotations

import sys

from .noncontig import fig7_series, fig10_platform_series
from .raw import fig1_bandwidth, fig1_latency
from .ring import (
    PAPER_DEMAND_MIB_S,
    fig12_platform_series,
    fig12_sci_series,
    link_frequency_comparison,
    ring_scalability_table,
    table2,
)
from .series import render_series, render_table
from .sparse import fig9_series, fig11_platform_series
from .strided import access_size_table, stride_sweep
from ..mpi.transport.policy import PaperThresholdPolicy
from ..platforms import TABLE1, platform_by_id

#: The sparse figures name SCI-MPICH's one-sided rule, as the benchmarks do.
PAPER = PaperThresholdPolicy()


def run_fig1() -> None:
    print(render_series("Figure 1 (top): small-data latency [µs]", fig1_latency()))
    print()
    print(render_series("Figure 1 (bottom): bandwidth [MiB/s]", fig1_bandwidth()))


def run_fig7() -> None:
    for internode in (True, False):
        where = "inter-node (SCI)" if internode else "intra-node (shm)"
        series = fig7_series(internode=internode)
        print(render_series(
            f"Figure 7: noncontig bandwidth, {where} [MiB/s]",
            [series["generic"], series["direct"], series["contiguous"]],
        ))
        print()


def run_sec43() -> None:
    print(render_series("Sec. 4.3: 8-byte strided writes vs stride [MiB/s]",
                        [stride_sweep(8)], size_x=False))
    print()
    for access, (lo, hi) in access_size_table().items():
        print(f"{access:4d} B accesses: {lo:7.2f} .. {hi:7.2f} MiB/s "
              f"(paper: {'5 .. 28' if access == 8 else '7 .. 162'})")


def run_fig9() -> None:
    out = fig9_series(policy=PAPER)
    keys = ("put-shared", "get-shared", "put-private", "get-private")
    print(render_series("Figure 9 (top): sparse per-call latency [µs]",
                        [out[k]["latency"] for k in keys]))
    print()
    print(render_series("Figure 9 (bottom): sparse bandwidth [MiB/s]",
                        [out[k]["bandwidth"] for k in keys]))


def run_fig10() -> None:
    curves = []
    for pid in ("C", "F-G", "F-s", "X-f", "X-s", "S-M", "S-s"):
        curves.append(fig10_platform_series(platform_by_id(pid).model)["nc"])
    sci = fig7_series(internode=True)
    curves.append(sci["direct"])
    curves[-1].label = "M-S nc"
    print(render_series("Figure 10: noncontig bandwidth per platform [MiB/s]",
                        curves))


def run_fig11() -> None:
    from .sparse import DEFAULT_ACCESS_SIZES, run_sparse
    from .series import Series

    curves = []
    for pid in ("C", "F-s", "X-f"):
        curves.append(fig11_platform_series(platform_by_id(pid).model)["bandwidth"])
    curves.append(fig11_platform_series(platform_by_id("X-s").model,
                                        op="get")["bandwidth"])
    sci = Series("M-S")
    for size in DEFAULT_ACCESS_SIZES:
        sci.add(size, run_sparse(size, op="put", shared=True,
                                 policy=PAPER).bandwidth)
    curves.append(sci)
    print(render_series("Figure 11: sparse one-sided bandwidth [MiB/s]", curves))


def run_fig12() -> None:
    from .ring import fig12_intranode_series

    curves = [fig12_sci_series(policy=PAPER),
              fig12_intranode_series(policy=PAPER)]
    for pid in ("C", "F-s", "X-s"):
        curves.append(fig12_platform_series(platform_by_id(pid).model))
    print(render_series("Figure 12: per-process put bandwidth vs processes "
                        "[MiB/s]", curves, size_x=False))


def run_tab1() -> None:
    print("Table 1: cluster platforms")
    for spec in TABLE1:
        osc = "yes" if spec.supports_osc else "no"
        note = f"  ({spec.note})" if spec.note else ""
        print(f"  {spec.id:4s} {spec.machine:45s} {spec.interconnect:16s} "
              f"{spec.mpi:18s} OSC:{osc}{note}")


def run_tab2() -> None:
    print(render_table(ring_scalability_table(PAPER_DEMAND_MIB_S)))
    print()
    print(render_table(table2()))
    print()
    rates = link_frequency_comparison()
    print("200 MHz link follow-up:",
          {f"{mhz:.0f} MHz": f"{bw:.1f} MiB/s" for mhz, bw in rates.items()})


def run_calibration() -> None:
    from .calibration import report

    print(report())


def run_pingpong() -> None:
    from .pingpong import bandwidth_series, latency_series

    print(render_series(
        "MPI ping-pong latency [µs]",
        [latency_series(intranode=False), latency_series(intranode=True)],
    ))
    print()
    print(render_series(
        "MPI ping-pong bandwidth [MiB/s]",
        [bandwidth_series(intranode=False), bandwidth_series(intranode=True)],
    ))


EXPERIMENTS = {
    "calibration": run_calibration,
    "pingpong": run_pingpong,
    "fig1": run_fig1,
    "fig7": run_fig7,
    "sec43": run_sec43,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "tab1": run_tab1,
    "tab2": run_tab2,
}


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench``: ``repro bench`` under its historical name."""
    from ..cluster.cli import bench_main  # that module imports this one

    return bench_main(argv)


if __name__ == "__main__":
    sys.exit(main())
