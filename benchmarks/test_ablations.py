"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper, but experiments the paper's design decisions
imply:

* **Rendezvous chunk size** (Sec. 3.3.2): "the amount of data copied in
  one handshake cycle ... should be kept below the size of the 2nd level
  cache" — sweeping the chunk size around L2 must show the optimum below
  the L2 size for mixed-block datatypes.
* **The transfer-mode verdict** (footnote 1's knob, computed): the
  default prices generic, direct_pack_ff and DMA per message and must
  match the best forced mode at every block size, SCI and shm.
* **DMA-based non-contiguous transfer** (Sec. 6 outlook): DMA + ff-pack
  beats PIO direct packing for tiny blocks (no per-block transaction
  penalty) and loses for medium blocks (setup + extra copy).
* **The eager/rendezvous threshold**: mid-size messages pay either the
  rendezvous handshake or the eager copy; the default must sit near the
  crossover.
"""

import pytest

from repro._units import KiB, to_mib_s
from repro.bench.noncontig import measure_point
from repro.cluster import Cluster
from repro.mpi.datatypes import DOUBLE, Struct, Hvector, Resized, Vector
from repro.mpi.pt2pt import NonContigMode, ProtocolConfig


def one_way_time(cluster, dtype, count=1, tag=0):
    """Simulated one-way transfer time for one datatype message."""

    def program(ctx):
        comm = ctx.comm
        span = dtype.extent * count
        buf = ctx.alloc(span)
        yield from comm.barrier()
        t0 = ctx.now
        if comm.rank == 0:
            yield from comm.send(buf, dest=1, tag=tag, datatype=dtype, count=count)
            return None
        yield from comm.recv(buf, source=0, tag=tag, datatype=dtype, count=count)
        return ctx.now - t0

    return cluster.run(program).results[1]


def mixed_block_type(total_bytes: int):
    """A type with two different basic block sizes (triggers the
    non-monotonic-address case of Sec. 3.3.2): 8 B + 64 B per 144 B cell."""
    cell = Resized(
        Struct([1, 8], [0, 16], [DOUBLE, DOUBLE]),
        lb=0, extent=144,
    )
    count = total_bytes // 72
    return Hvector(count, 1, 144, cell).commit()


def test_ablation_rendezvous_chunk_size(once):
    """Optimum chunk size lies below the L2 size (256 kiB)."""
    dtype = mixed_block_type(1024 * KiB)

    def sweep():
        results = {}
        for chunk in (16 * KiB, 64 * KiB, 128 * KiB, 512 * KiB, 1024 * KiB):
            protocol = ProtocolConfig(
                noncontig_mode=NonContigMode.DIRECT, rendezvous_chunk=chunk
            )
            cluster = Cluster(n_nodes=2, protocol=protocol)
            results[chunk] = one_way_time(cluster, dtype)
        return results

    results = once(sweep)
    print()
    for chunk, t in results.items():
        print(f"  chunk {chunk // KiB:5d} kiB: {t:9.1f} µs")
    best = min(results, key=results.get)
    assert best < 256 * KiB, "optimum must be below the L2 size"
    # Chunks beyond L2 thrash: visibly slower than the best sub-L2 chunk.
    assert results[1024 * KiB] > 1.15 * results[best]
    # But overly small chunks pay handshake overhead.
    assert results[16 * KiB] > results[64 * KiB]


def test_ablation_verdict_vs_forced(once):
    """The default (AUTO) verdict against each forced mode, 256 KiB
    Vector at stride 2 x block, over SCI and shm."""
    forced = (NonContigMode.GENERIC, NonContigMode.DIRECT, NonContigMode.DMA)

    def sweep():
        out = {}
        for where, internode in (("SCI", True), ("shm", False)):
            for blocksize in (8, 16, 64):
                out[where, blocksize] = {
                    mode: measure_point(blocksize, internode=internode, mode=mode)
                    for mode in forced + (NonContigMode.AUTO,)
                }
        return out

    out = once(sweep)
    print()
    for (where, blocksize), row in out.items():
        print(f"  {where} {blocksize:3d} B blocks: " + "  ".join(
            f"{mode}={bw:6.1f}" for mode, bw in row.items()))
    # Footnote 1's premise: at 8 B blocks inter-node generic beats direct.
    assert out["SCI", 8][NonContigMode.GENERIC] > out["SCI", 8][NonContigMode.DIRECT]
    # The verdict never loses to the best forced mode.
    for row in out.values():
        assert row[NonContigMode.AUTO] >= max(row[mode] for mode in forced) / 1.05


def test_ablation_dma_noncontig(once):
    """The Sec. 6 outlook: DMA + ff-pack vs PIO direct vs generic."""
    total = 512 * KiB

    def sweep():
        out = {}
        for blocksize in (8, 64, 1 * KiB):
            doubles = blocksize // 8
            vec = Vector(total // blocksize, doubles, 2 * doubles, DOUBLE).commit()
            row = {}
            for mode in (NonContigMode.GENERIC, NonContigMode.DIRECT,
                         NonContigMode.DMA):
                cluster = Cluster(n_nodes=2, protocol=ProtocolConfig(noncontig_mode=mode))
                row[mode] = to_mib_s(total / one_way_time(cluster, vec))
            out[blocksize] = row
        return out

    out = once(sweep)
    print()
    for blocksize, row in out.items():
        print(f"  {blocksize:5d} B blocks: " + "  ".join(
            f"{mode}={bw:7.1f}" for mode, bw in row.items()))
    # Tiny blocks: DMA avoids the per-block SCI transaction penalty and
    # beats both PIO techniques.
    assert out[8][NonContigMode.DMA] > out[8][NonContigMode.DIRECT]
    assert out[8][NonContigMode.DMA] > out[8][NonContigMode.GENERIC]
    # Mid/large blocks: direct PIO packing wins (no setup, no extra copy).
    assert out[1 * KiB][NonContigMode.DIRECT] > out[1 * KiB][NonContigMode.DMA]


def test_ablation_eager_threshold(once):
    """Sweep the eager/rendezvous threshold around a 12 kiB message."""
    nbytes = 12 * KiB

    def sweep():
        results = {}
        for threshold in (2 * KiB, 16 * KiB, 64 * KiB):
            protocol = ProtocolConfig(eager_threshold=threshold)
            cluster = Cluster(n_nodes=2, protocol=protocol)

            def program(ctx):
                comm = ctx.comm
                buf = ctx.alloc(nbytes)
                yield from comm.barrier()
                t0 = ctx.now
                if comm.rank == 0:
                    yield from comm.send(buf, dest=1, tag=0)
                    return None
                yield from comm.recv(buf, source=0, tag=0)
                return ctx.now - t0

            results[threshold] = cluster.run(program).results[1]
        return results

    results = once(sweep)
    print()
    for threshold, t in results.items():
        print(f"  eager threshold {threshold // KiB:3d} kiB: {t:8.1f} µs")
    # Below the threshold the 12 kiB message goes eager and skips the
    # rendezvous handshake: faster.
    assert results[16 * KiB] < results[2 * KiB]
    assert results[64 * KiB] == pytest.approx(results[16 * KiB], rel=0.01)


def test_ablation_plan_cache(once):
    """The packing-plan cache ablation: repeated transfers of one datatype
    must build strictly fewer offset tables with the cache enabled, at
    identical simulated time (the cache saves host work, not wire time)."""
    from contextlib import nullcontext

    from repro.mpi.flatten import (
        plan_cache_disabled,
        plan_cache_stats,
        reset_plan_cache,
    )

    dtype = Vector(4096, 1, 2, DOUBLE).commit()  # 32 kiB: rendezvous

    def roundtrips(enabled):
        reset_plan_cache()
        protocol = ProtocolConfig(noncontig_mode=NonContigMode.DIRECT)
        cluster = Cluster(n_nodes=2, protocol=protocol)

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(dtype.extent)
            yield from comm.barrier()
            t0 = ctx.now
            for rep in range(6):
                if comm.rank == 0:
                    yield from comm.send(buf, dest=1, tag=rep,
                                         datatype=dtype, count=1)
                else:
                    yield from comm.recv(buf, source=0, tag=rep,
                                         datatype=dtype, count=1)
            return ctx.now - t0

        with nullcontext() if enabled else plan_cache_disabled():
            elapsed = cluster.run(program).results[1]
        return plan_cache_stats()["builds"], elapsed

    def sweep():
        cached_builds, cached_time = roundtrips(enabled=True)
        uncached_builds, uncached_time = roundtrips(enabled=False)
        return {
            "cached": (cached_builds, cached_time),
            "uncached": (uncached_builds, uncached_time),
        }

    results = once(sweep)
    cached_builds, cached_time = results["cached"]
    uncached_builds, uncached_time = results["uncached"]
    print()
    print(f"  cache on : {cached_builds:4d} plan builds, {cached_time:9.1f} µs")
    print(f"  cache off: {uncached_builds:4d} plan builds, {uncached_time:9.1f} µs")
    assert cached_builds < uncached_builds, \
        "caching must save offset-table constructions"
    assert cached_time == pytest.approx(uncached_time), \
        "the cache must not change simulated time"


def test_ablation_transport_policy(once):
    """Transport-policy ablation: chunked, plan-aware collectives are never
    slower than the monolithic algorithms at identical byte counts.

    The :class:`ChunkedCollectivesPolicy` pipelines large broadcasts down a
    chain of ranks in packed-stream segments (strictly faster once the
    payload spans several rendezvous handshakes) and deliberately keeps
    the already message-pipelined ring allgather and pairwise alltoall
    monolithic (identical time).
    """
    from repro.mpi.transport import ChunkedCollectivesPolicy

    nbytes = 256 * KiB
    n_nodes = 4

    def bcast_time(policy):
        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(nbytes)
            yield from comm.barrier()
            t0 = ctx.now
            yield from comm.bcast(buf, root=0, count=nbytes)
            yield from comm.barrier()
            return ctx.now - t0

        return Cluster(n_nodes=n_nodes, policy=policy).run(program).results[0]

    def ring_times(policy):
        def program(ctx):
            comm = ctx.comm
            send = ctx.alloc(nbytes)
            recv = ctx.alloc(nbytes * comm.size)
            yield from comm.barrier()
            t0 = ctx.now
            yield from comm.allgather(send, recv, count=nbytes)
            t1 = ctx.now
            yield from comm.alltoall(recv, ctx.alloc(nbytes * comm.size),
                                     count=nbytes)
            return t1 - t0, ctx.now - t1

        return Cluster(n_nodes=n_nodes, policy=policy).run(program).results[0]

    def sweep():
        chunked = ChunkedCollectivesPolicy()
        return {
            "bcast": (bcast_time(None), bcast_time(chunked)),
            "allgather/alltoall": (ring_times(None), ring_times(chunked)),
        }

    results = once(sweep)
    mono_b, chunk_b = results["bcast"]
    print()
    print(f"  bcast {nbytes // KiB} kiB x{n_nodes}: monolithic {mono_b:9.1f} µs"
          f"  chunked {chunk_b:9.1f} µs  ({mono_b / chunk_b:.2f}x)")
    (mono_ag, mono_a2a), (chunk_ag, chunk_a2a) = results["allgather/alltoall"]
    print(f"  allgather: {mono_ag:9.1f} µs vs {chunk_ag:9.1f} µs; "
          f"alltoall: {mono_a2a:9.1f} µs vs {chunk_a2a:9.1f} µs")
    # Chunked collectives are identical-or-better, never slower.
    assert chunk_b < mono_b
    assert chunk_ag == pytest.approx(mono_ag)
    assert chunk_a2a == pytest.approx(mono_a2a)


def test_ablation_fault_recovery(once):
    """Recovery-policy ablation under one seeded fault plan.

    Torn-stream *resume* (retransmit only the lost suffix) must beat
    whole-chunk retransmission on the same fault schedule, and both must
    deliver the payload intact.  Also places the overall recovery
    overhead: a lively plan costs time but stays within an order of
    magnitude of the clean run.
    """
    import numpy as np

    from repro.hardware.sci.faults import FaultPlan
    from repro.mpi.datatypes import BYTE
    from repro.mpi.transport import RecoveryPolicy, TransferPolicy

    dtype = Vector(3072, 64, 96, BYTE)
    extent = 3072 * 96

    def transfer(faults=None, policy=None):
        def program(ctx):
            comm = ctx.comm
            dtype.commit()
            buf = ctx.alloc(extent)
            t0 = ctx.now
            if comm.rank == 0:
                buf.read()[:] = np.arange(extent, dtype=np.uint8) % 251
                yield from comm.send(buf, dest=1, datatype=dtype, count=1)
                return None
            yield from comm.recv(buf, source=0, datatype=dtype, count=1)
            return (ctx.now - t0, bytes(buf.read()))

        cluster = Cluster(n_nodes=2, faults=faults, policy=policy)
        return cluster.run(program).results[1]

    def sweep():
        t_clean, payload_clean = transfer()
        t_resume, payload_resume = transfer(
            faults=FaultPlan(seed=2, torn_rate=0.5))
        t_whole, payload_whole = transfer(
            faults=FaultPlan(seed=2, torn_rate=0.5),
            policy=TransferPolicy(recovery=RecoveryPolicy(resume_torn=False)),
        )
        t_lively, payload_lively = transfer(
            faults=FaultPlan(seed=1, transient_rate=0.25, torn_rate=0.25,
                             stall_rate=0.15, stall_time=3000.0))
        assert payload_resume == payload_clean
        assert payload_whole == payload_clean
        assert payload_lively == payload_clean
        return {"clean": t_clean, "torn+resume": t_resume,
                "torn+retransmit": t_whole, "lively": t_lively}

    results = once(sweep)
    print()
    for name, t in results.items():
        print(f"  {name:16}: {t:9.1f} µs ({t / results['clean']:.2f}x)")
    # Same fault schedule: resuming at the tear offset beats retransmitting
    # the whole chunk, and both cost more than the clean run.
    assert results["clean"] < results["torn+resume"] < results["torn+retransmit"]
    # Bounded recovery: even the lively plan stays within 10x of clean.
    assert results["lively"] < 10 * results["clean"]
