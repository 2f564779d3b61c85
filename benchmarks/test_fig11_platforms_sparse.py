"""E6 / Figure 11: one-sided *sparse* performance across platforms.

Acceptance (Sec. 5.3):
* "Sun MPI delivers very good performance for shared memory" — best
  bandwidth of all platforms;
* "Cray T3E also shows good performance, which is in the same range as
  the performance of SCI-MPICH for SCI remote shared memory";
* LAM over fast ethernet: "very high latencies and gives a maximum of
  10 MiB bandwidth";
* "the performance of the [LAM] shared memory implementation is a little
  bit lower than SCI-MPICH via SCI".
"""

from repro._units import KiB
from repro.bench.series import render_series
from repro.bench.sparse import DEFAULT_ACCESS_SIZES, fig11_platform_series, run_sparse
from repro.mpi.transport import PaperThresholdPolicy
from repro.platforms import platform_by_id


def test_fig11(once):
    def build():
        platform_curves = {
            pid: fig11_platform_series(platform_by_id(pid).model, op="put")
            for pid in ("C", "F-s", "X-f")
        }
        # X-s: "only MPI_Get(), MPI_Put() deadlocked" (Table 1 note).
        platform_curves["X-s"] = fig11_platform_series(
            platform_by_id("X-s").model, op="get"
        )
        from repro.bench.series import Series

        lat = Series("M-S", y_unit="µs")
        bw = Series("M-S")
        lat_i = Series("M-s", y_unit="µs")
        bw_i = Series("M-s")
        paper = PaperThresholdPolicy()  # SCI-MPICH's one-sided rule, named
        for size in DEFAULT_ACCESS_SIZES:
            result = run_sparse(size, op="put", shared=True, policy=paper)
            lat.add(size, result.latency)
            bw.add(size, result.bandwidth)
            result = run_sparse(size, op="put", shared=True, intranode=True,
                                policy=paper)
            lat_i.add(size, result.latency)
            bw_i.add(size, result.bandwidth)
        sci = {"latency": lat, "bandwidth": bw,
               "latency_intra": lat_i, "bandwidth_intra": bw_i}
        return platform_curves, sci

    platform_curves, sci = once(build)
    bw_series = [sci["bandwidth"], sci["bandwidth_intra"]] + [
        platform_curves[p]["bandwidth"] for p in platform_curves
    ]
    lat_series = [sci["latency"], sci["latency_intra"]] + [
        platform_curves[p]["latency"] for p in platform_curves
    ]
    print()
    print(render_series("Figure 11: sparse one-sided latency [µs]", lat_series))
    print()
    print(render_series("Figure 11: sparse one-sided bandwidth [MiB/s]", bw_series))

    sun = platform_curves["F-s"]["bandwidth"]
    t3e = platform_curves["C"]["bandwidth"]
    lam_eth = platform_curves["X-f"]["bandwidth"]
    lam_shm = platform_curves["X-s"]["bandwidth"]
    sci_bw = sci["bandwidth"]

    # Sun shared memory is the top performer.
    for other in (t3e, lam_eth, lam_shm, sci_bw):
        assert sun.peak > other.peak

    # T3E in the same range as SCI-MPICH over SCI (within ~2x either way).
    for size in (256, 1 * KiB, 16 * KiB):
        ratio = t3e.at(size) / sci_bw.at(size)
        assert 0.3 <= ratio <= 3.0, (size, ratio)

    # LAM over fast ethernet: capped around 10 MiB/s, very high latency.
    assert lam_eth.peak <= 12.0
    assert platform_curves["X-f"]["latency"].at(8) > 50.0

    # LAM shm a bit lower than SCI-MPICH via SCI at the top end.
    assert lam_shm.peak < sci_bw.peak
    assert lam_shm.peak > 0.3 * sci_bw.peak

    # SCI-MPICH intra-node (M-s): lower per-call latency than via SCI.
    assert sci["latency_intra"].at(8) < sci["latency"].at(8)
