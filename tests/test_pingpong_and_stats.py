"""Tests for the ping-pong micro-benchmark, Cluster.stats and signatures."""

import pytest

from repro._units import KiB, MiB
from repro.bench.pingpong import bandwidth_series, latency_series, pingpong
from repro.cluster import Cluster
from repro.mpi.datatypes import BYTE, DOUBLE, Struct, Vector


class TestPingpong:
    def test_latency_small_message(self):
        one_way = pingpong(8)
        assert 1.0 < one_way < 20.0  # µs-scale MPI latency

    def test_zero_byte_message(self):
        assert pingpong(0) > 0.0

    def test_intranode_faster(self):
        assert pingpong(64 * KiB, intranode=True) < pingpong(64 * KiB)

    def test_bandwidth_series_shape(self):
        series = bandwidth_series(sizes=[1 * KiB, 64 * KiB, 1 * MiB])
        assert series.y[0] < series.y[-1]  # bandwidth rises with size
        assert 60 <= series.y[-1] <= 140   # MPI-level contiguous peak

    def test_latency_series_monotone(self):
        series = latency_series(sizes=[8, 1 * KiB, 64 * KiB])
        assert series.y[0] < series.y[1] < series.y[2]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            pingpong(-1)
        with pytest.raises(ValueError):
            pingpong(8, iterations=0)


class TestClusterStats:
    def test_stats_reports_counters(self):
        cluster = Cluster(n_nodes=2)

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(4 * KiB)
            if comm.rank == 0:
                yield from comm.send(buf, dest=1, tag=0)
            else:
                yield from comm.recv(buf, source=0, tag=0)

        cluster.run(program)
        text = cluster.stats()
        assert "fabric:" in text
        assert "rank 0: " in text and "sends=1" in text
        assert "rank 1:" in text and "recvs=1" in text


def _compatible(a, b):
    """Whether packed data of ``a`` unpacks correctly as ``b``: equal
    signatures match, and a contiguous stream of the same size matches
    anything (one side fully flat)."""
    if a.size != b.size:
        return False
    return a.signature() == b.signature() or a.is_contiguous or b.is_contiguous


class TestSignatures:
    def test_equal_types_equal_signatures(self):
        a = Vector(8, 2, 4, DOUBLE).commit()
        b = Vector(8, 2, 4, DOUBLE).commit()
        assert a.signature() == b.signature()
        assert _compatible(a, b)

    def test_contiguous_matches_any_same_size(self):
        vec = Vector(8, 1, 2, DOUBLE).commit()
        from repro.mpi.datatypes import Contiguous

        flat = Contiguous(64, BYTE).commit()
        assert _compatible(vec, flat)
        assert _compatible(flat, vec)

    def test_different_structures_incompatible(self):
        a = Struct([1, 1], [0, 16], [DOUBLE, DOUBLE]).commit()
        b = Vector(2, 1, 3, DOUBLE).commit()
        # Same size (16 B of data) but different leaf structure.
        assert a.size == b.size
        assert not _compatible(a, b)

    def test_size_mismatch_incompatible(self):
        a = Vector(4, 1, 2, DOUBLE).commit()
        b = Vector(8, 1, 2, DOUBLE).commit()
        assert not _compatible(a, b)
