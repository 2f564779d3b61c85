"""Programmatic calibration report: every paper-anchored target, checked.

The hardware models are calibrated against numbers the paper itself
reports (see DESIGN.md §2 and repro.hardware.params).  This module makes
those anchors executable: each :class:`CalibrationTarget` names the
paper's value, measures ours, and judges the deviation — so any future
change to the cost models that drifts away from the paper fails loudly
(``tests/test_calibration.py``) and the full report is one call away::

    repro bench calibration
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .._units import KiB, MiB, to_mib_s
from ..hardware.params import DEFAULT_NODE, congestion_fraction
from ..hardware.sci.transactions import (
    AccessRun,
    dma_cost,
    remote_read_cost,
    remote_write_cost,
)
from .strided import strided_write_bandwidth

__all__ = ["CalibrationTarget", "TARGETS", "report", "check_all"]


@dataclass(frozen=True)
class CalibrationTarget:
    """One paper-anchored calibration point."""

    name: str
    paper_value: float
    unit: str
    measure: Callable[[], float]
    #: Accepted relative deviation (the reproduction bands allow shape-level
    #: fidelity; tight tolerances mark points we calibrated *to*).
    rel_tol: float
    source: str  # where in the paper the anchor comes from

    def measured(self) -> float:
        return self.measure()

    def ok(self) -> bool:
        measured = self.measured()
        return abs(measured - self.paper_value) <= self.rel_tol * self.paper_value


def _contiguous_bw(nbytes: int, src_cached: bool = True) -> float:
    cost = remote_write_cost(
        AccessRun.contiguous(0, nbytes), DEFAULT_NODE, src_cached=src_cached
    )
    return to_mib_s(nbytes / cost.duration)


def _read_bw(nbytes: int) -> float:
    return to_mib_s(nbytes / remote_read_cost(AccessRun.contiguous(0, nbytes), DEFAULT_NODE))


def _table2_per_node(nodes: int) -> float:
    demand = 120.83
    load = nodes * demand / 633.0
    return demand * congestion_fraction(load)


def _wc_off_fraction() -> float:
    wc_off = DEFAULT_NODE.with_write_combining(False)
    return (strided_write_bandwidth(4096, 8192, params=wc_off)
            / strided_write_bandwidth(4096, 8192))


TARGETS: list[CalibrationTarget] = [
    CalibrationTarget(
        "8 B strided write, best stride", 28.0, "MiB/s",
        lambda: strided_write_bandwidth(8, 32), rel_tol=0.10,
        source="Sec. 4.3: '28 MiB/s for 8 byte access size'",
    ),
    CalibrationTarget(
        "8 B strided write, worst stride", 5.0, "MiB/s",
        lambda: min(strided_write_bandwidth(8, s) for s in range(9, 64)),
        rel_tol=1.0,
        source="Sec. 4.3: 'varying between 5 and 28 MiB/s'",
    ),
    CalibrationTarget(
        "256 B strided write, best stride", 162.0, "MiB/s",
        lambda: strided_write_bandwidth(256, 512), rel_tol=0.15,
        source="Sec. 4.3: '7 and 162 MiB/s for 256 byte access size'",
    ),
    CalibrationTarget(
        "write-combining disabled, fraction of peak", 0.50, "x",
        _wc_off_fraction, rel_tol=0.30,
        source="Sec. 4.3: 'lowers the overall bandwidth about 50%'",
    ),
    CalibrationTarget(
        "nominal ring bandwidth at 166 MHz", 633.0, "MiB/s",
        lambda: to_mib_s(DEFAULT_NODE.link.bandwidth), rel_tol=0.01,
        source="Sec. 5.3: 'the ring bandwidth is at 633 MiB/s'",
    ),
    CalibrationTarget(
        "nominal ring bandwidth at 200 MHz", 762.0, "MiB/s",
        lambda: to_mib_s(DEFAULT_NODE.with_link_mhz(200.0).link.bandwidth),
        rel_tol=0.01,
        source="Sec. 5.3: 'nominal link bandwidth of 762 MiB/s'",
    ),
    *[
        CalibrationTarget(
            f"Table 2 per-node bandwidth, {n} nodes", paper, "MiB/s",
            (lambda n=n: _table2_per_node(n)), rel_tol=0.03,
            source="Table 2, '8 transfers/segment' column",
        )
        for n, paper in [(4, 120.70), (5, 115.80), (6, 97.75),
                         (7, 79.30), (8, 62.78)]
    ],
    CalibrationTarget(
        "remote read << write (read bandwidth)", 20.0, "MiB/s",
        lambda: _read_bw(64 * KiB), rel_tol=0.25,
        source="Sec. 2 / Fig. 1: reads a fraction of write performance",
    ),
    CalibrationTarget(
        "PIO dip beyond L2 (uncached source)", 140.0, "MiB/s",
        lambda: _contiguous_bw(1 * MiB, src_cached=False), rel_tol=0.10,
        source="Fig. 1 footnote 2: limited local memory bandwidth",
    ),
    CalibrationTarget(
        "DMA streaming bandwidth", 220.0, "MiB/s",
        lambda: to_mib_s((4 * MiB) / dma_cost(4 * MiB, DEFAULT_NODE)),
        rel_tol=0.10,
        source="Fig. 1: DMA curve (large transfers)",
    ),
]


def check_all() -> list[tuple[CalibrationTarget, float, bool]]:
    """Measure every target; returns (target, measured, ok) triples."""
    return [(t, t.measured(), t.ok()) for t in TARGETS]


def report() -> str:
    lines = [
        "calibration report (paper anchor vs measured)",
        f"{'target':45s} {'paper':>9} {'measured':>9} {'tol':>6}  ok",
    ]
    for target, measured, ok in check_all():
        lines.append(
            f"{target.name:45s} {target.paper_value:9.2f} {measured:9.2f} "
            f"{target.rel_tol * 100:5.0f}%  {'✓' if ok else '✗'}"
        )
    return "\n".join(lines)
