"""Tests for transient-error (retry) injection on the SCI fabric."""

import numpy as np
import pytest

from repro._units import KiB
from repro.cluster import Cluster
from repro.obs import attach_tracer


def timed_transfer(cluster, nbytes=64 * KiB):
    def program(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        yield from comm.barrier()
        t0 = ctx.now
        if comm.rank == 0:
            buf.read()[:] = np.arange(nbytes, dtype=np.uint8) % 211
            yield from comm.send(buf, dest=1, tag=0)
            return None
        yield from comm.recv(buf, source=0, tag=0)
        return (ctx.now - t0, buf.tobytes())

    return cluster.run(program).results[1]


class TestErrorInjection:
    def test_retries_slow_down_but_preserve_data(self):
        clean = Cluster(n_nodes=2)
        t_clean, payload_clean = timed_transfer(clean)

        flaky = Cluster(n_nodes=2)
        flaky.fabric.set_error_rate(1.0, penalty=0.5, seed=1)
        tracer = attach_tracer(flaky)
        t_flaky, payload_flaky = timed_transfer(flaky)

        assert payload_flaky == payload_clean  # retries are transparent
        assert t_flaky > 1.2 * t_clean
        retries = flaky.fabric.counters["retries"]
        assert retries > 0
        # The retry counter must be surfaced in the trace summary.
        assert f"retries={retries}" in tracer.summary()

    def test_zero_rate_is_noop(self):
        cluster = Cluster(n_nodes=2)
        cluster.fabric.set_error_rate(0.0)
        t, _ = timed_transfer(cluster)
        reference = Cluster(n_nodes=2)
        t_ref, _ = timed_transfer(reference)
        assert t == t_ref
        assert cluster.fabric.counters["retries"] == 0

    def test_deterministic_for_seed(self):
        def run(seed):
            cluster = Cluster(n_nodes=2)
            cluster.fabric.set_error_rate(0.3, seed=seed)
            t, _ = timed_transfer(cluster)
            return (t, cluster.fabric.counters["retries"])

        assert run(7) == run(7)

    def test_invalid_rate(self):
        cluster = Cluster(n_nodes=2)
        with pytest.raises(ValueError):
            cluster.fabric.set_error_rate(1.5)

    def test_partial_rate_affects_some_transfers(self):
        cluster = Cluster(n_nodes=2)
        cluster.fabric.set_error_rate(0.5, seed=3)

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(4 * KiB)
            for i in range(20):
                if comm.rank == 0:
                    yield from comm.send(buf, dest=1, tag=i)
                else:
                    yield from comm.recv(buf, source=0, tag=i)

        cluster.run(program)
        retries = cluster.fabric.counters["retries"]
        writes = cluster.fabric.counters["pio_writes"]
        assert 0 < retries < writes
