"""E1 / Figure 1: raw SCI communication performance.

Acceptance (paper shapes):
* remote write bandwidth is a multiple of remote read bandwidth;
* DMA loses to PIO for small transfers and wins for large ones;
* small-transfer PIO latency is in the low-µs range;
* PIO bandwidth dips beyond 128 kiB (limited local memory bandwidth).
"""

from repro._units import KiB, MiB
from repro.bench.raw import fig1_bandwidth, fig1_latency
from repro.bench.series import render_series


def _interpolate(series, x):
    """Piecewise-linear interpolation (x values must be sorted)."""
    xs, ys = series.x, series.y
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError("unreachable")


def test_fig1_latency(once):
    write, read, dma = once(fig1_latency)
    print()
    print(render_series("Figure 1 (top): small-data latency [µs]", [write, read, dma]))
    assert write.y[0] < 5.0                      # low-µs PIO write latency
    assert read.y[0] < 10.0                      # small reads still low latency
    assert dma.y[0] > 5 * write.y[0]             # DMA setup dominates small


def test_fig1_bandwidth(once):
    write, read, dma = once(fig1_bandwidth)
    print()
    print(render_series("Figure 1 (bottom): bandwidth [MiB/s]", [write, read, dma]))
    # Write >> read (the paper's central asymmetry).
    assert write.peak > 5 * read.peak
    # DMA overtakes PIO for large transfers only.
    assert _interpolate(dma, 1 * KiB) < _interpolate(write, 1 * KiB)
    assert _interpolate(dma, 4 * MiB) > _interpolate(write, 4 * MiB)
    # The PIO dip beyond 128 kiB on this chipset.
    assert _interpolate(write, 1 * MiB) < _interpolate(write, 64 * KiB)
