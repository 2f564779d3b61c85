"""E4 / Figure 9: the *sparse* micro-benchmark (Put/Get x shared/private).

Acceptance (paper shapes):
* direct puts to shared windows have the lowest latency / highest
  bandwidth;
* get-from-shared latency "is increasing rapidly" with the access size
  (strided remote reads), including the reproducible spike at 3 elements
  (24 bytes);
* private-window (emulated) accesses have high latencies "due to the
  required signalling of the remote process";
* "the bandwidth numbers for accessing remote private memory and reading
  remote shared memory become very similar for bigger access sizes as
  they are all performed via message exchange".
"""

import pytest

from repro._units import KiB
from repro.bench.series import render_series
from repro.bench.sparse import fig9_series
from repro.mpi.transport import PaperThresholdPolicy


def test_fig9(once):
    # The paper's 2 KiB rule, named: the default verdict reads 448 B and
    # more by remote-put (tests/test_osc_verdict.py).
    out = once(fig9_series, policy=PaperThresholdPolicy())
    lat = [out[k]["latency"] for k in
           ("put-shared", "get-shared", "put-private", "get-private")]
    bw = [out[k]["bandwidth"] for k in
          ("put-shared", "get-shared", "put-private", "get-private")]
    print()
    print(render_series("Figure 9 (top): sparse per-call latency [µs]", lat))
    print()
    print(render_series("Figure 9 (bottom): sparse bandwidth [MiB/s]", bw))

    put_s, get_s, put_p, get_p = (out[k] for k in
                                  ("put-shared", "get-shared",
                                   "put-private", "get-private"))

    # Direct put: lowest small-access latency of all variants.
    for other in (get_s, put_p, get_p):
        assert put_s["latency"].at(8) < other["latency"].at(8)

    # Emulated accesses: high latency from signalling the remote process.
    assert put_p["latency"].at(8) > 5 * put_s["latency"].at(8)

    # Get-from-shared latency rises rapidly (remote read stalls)...
    assert get_s["latency"].at(1 * KiB) > 8 * get_s["latency"].at(8)
    # ... with the reproducible spike at 3 elements (24 B): two read
    # transactions (16+8) instead of one.
    assert get_s["latency"].at(24) > 1.5 * get_s["latency"].at(16)
    assert get_s["latency"].at(24) > 1.5 * get_s["latency"].at(32)

    # Large accesses: get-shared (remote-put) and the private variants
    # converge — all are message exchange.
    big = 64 * KiB
    reference = get_p["bandwidth"].at(big)
    assert get_s["bandwidth"].at(big) == pytest.approx(reference, rel=0.1)
    assert abs(put_p["bandwidth"].at(big) - reference) < 0.6 * reference

    # Put-shared keeps the highest bandwidth throughout.
    assert put_s["bandwidth"].peak > get_s["bandwidth"].peak
    assert put_s["bandwidth"].peak > put_p["bandwidth"].peak
