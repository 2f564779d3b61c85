"""Unit tests for the benchmark infrastructure (repro.bench)."""

import pytest

from repro._units import KiB, MiB
from repro.bench.noncontig import measure_point
from repro.bench.raw import fig1_bandwidth, fig1_latency
from repro.bench.ring import (
    PAPER_DEMAND_MIB_S,
    measure_put_rate,
    ring_scalability_table,
)
from repro.bench.series import Series, Table, render_series, render_table
from repro.bench.sparse import SparseResult, run_sparse
from repro.bench.strided import stride_sweep, strided_write_bandwidth


class TestSeries:
    def test_add_and_at(self):
        s = Series("x")
        s.add(8, 1.0)
        s.add(16, 2.0)
        assert s.at(16) == 2.0
        assert s.peak == 2.0
        with pytest.raises(ValueError):
            s.at(99)

    def test_render_series(self):
        a = Series("alpha")
        b = Series("beta")
        for x in (8, 1024):
            a.add(x, 1.0)
            b.add(x, 2.0)
        text = render_series("title", [a, b])
        assert "alpha" in text and "beta" in text and "1 kiB" in text


class TestTable:
    def test_add_row_and_column(self):
        t = Table("t", columns=["a", "b"])
        t.add_row(1, 2.0)
        t.add_row(3, 4.0)
        assert t.column("b") == [2.0, 4.0]

    def test_row_arity_checked(self):
        t = Table("t", columns=["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_render(self):
        t = Table("My Table", columns=["n", "v"])
        t.add_row(1, 2.5)
        text = render_table(t)
        assert "My Table" in text and "2.50" in text


class TestRawBench:
    def test_series_structure(self):
        write, read, dma = fig1_bandwidth(sizes=[64, 4 * KiB, 1 * MiB])
        assert len(write.x) == 3
        assert write.y[-1] > read.y[-1]

    def test_latency_monotone_for_pio_write(self):
        write, _, _ = fig1_latency(sizes=[8, 64, 512])
        assert write.y[0] <= write.y[1] <= write.y[2]


class TestNoncontigBench:
    def test_blocksize_must_be_double_multiple(self):
        with pytest.raises(ValueError):
            measure_point(12)

    def test_deterministic(self):
        a = measure_point(256, total=64 * KiB)
        b = measure_point(256, total=64 * KiB)
        assert a == b

    def test_contiguous_flag(self):
        c = measure_point(8, contiguous=True, total=64 * KiB)
        nc = measure_point(8, contiguous=False, total=64 * KiB)
        assert c > nc


class TestSparseBench:
    def test_result_properties(self):
        r = SparseResult(access_size=8, calls=100, elapsed=200.0, bytes_moved=800)
        assert r.latency == 2.0
        assert r.bandwidth == pytest.approx(800 / 200.0 * 1e6 / (1 << 20))

    def test_invalid_op(self):
        with pytest.raises(ValueError):
            run_sparse(8, op="swap")

    def test_stride_two_call_count(self):
        r = run_sparse(1 * KiB, winsize=16 * KiB)
        assert r.calls == 8  # (16k - 1k) // 2k + 1


class TestStridedBench:
    def test_contiguous_stride_rejected(self):
        with pytest.raises(ValueError):
            strided_write_bandwidth(8, 4)

    def test_sweep_excludes_contiguous(self):
        s = stride_sweep(8, [8, 16, 32])
        assert 8 not in s.x

    def test_aligned_stride_wins(self):
        aligned = strided_write_bandwidth(8, 32)
        odd = strided_write_bandwidth(8, 33)
        assert aligned > 2 * odd


class TestRingBench:
    def test_table_shape(self):
        t = ring_scalability_table(PAPER_DEMAND_MIB_S, node_counts=[4, 8])
        assert t.column("nodes") == [4, 8]
        assert t.column("pn-max")[0] > t.column("pn-max")[1]

    def test_measure_put_rate_positive(self):
        rate = measure_put_rate(4 * KiB)
        assert 100.0 < rate < 250.0
