"""The seven workloads: seeded inputs, program bodies, output checks.

A workload is a generator function ``(seed) -> Iterator[Cell]``.  It draws every input
from the seed and hands the program under test only those inputs.  A
:class:`Cell` is one measured unit with three phases the driver times
separately:

* ``build()`` — cluster construction (counted as set-up);
* ``run()``   — the body: datatype construction, the simulated program,
  the registry snapshot (counted as ``host_user_s``);
* ``check()`` — output verification against an oracle that does not use
  the code under test (untimed); returns a :class:`CellResult`.

Cells are single-use: the driver asks for fresh ones per repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro import (BYTE, DOUBLE, INT, SHORT, Cluster, Hvector, Indexed,
                   NonContigMode, Resized, Struct, Vector)
from repro.hardware.sci.topology import RingOfRings
from repro.mpi.pt2pt.config import DEFAULT_PROTOCOL
from repro.mpi.transport.policy import ChunkedCollectivesPolicy
from repro.scenarios import run_scenario, scenario_names
from repro.svc.repl import (OpenLoopSpec, ReplicatedServiceConfig,
                            run_replicated_service)
from repro.svc.workload import WorkloadSpec

from spec import SIZES

__all__ = ["Cell", "CellResult", "WORKLOAD_CELLS", "cells_for"]

#: Fill of every receive buffer and put-target window before the run;
#: the gaps of a strided transfer must still hold it afterwards.
SENTINEL = 0xA5


@dataclass
class CellResult:
    """What one cell produced, as the driver aggregates it."""

    sim_us: float
    payload_bytes: int
    ops: int
    #: Registry snapshot (``cluster.metrics.snapshot()`` or the report's
    #: ``metrics`` block).
    counts: dict
    #: One line per failed operation; empty when the outputs are right.
    failures: list[str] = field(default_factory=list)
    #: Workload-specific named values (kv latencies).
    extra: dict = field(default_factory=dict)


class Cell:
    """One measured unit of a workload (see the module docstring)."""

    name = ""

    def build(self) -> None:
        """Construct what the body runs on (timed as set-up)."""

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> CellResult:
        raise NotImplementedError


def _pattern(rng: np.random.Generator, nbytes: int) -> np.ndarray:
    return rng.integers(0, 256, nbytes, dtype=np.uint8)


# -- noncontig -----------------------------------------------------------------


@dataclass
class Layout:
    """A datatype geometry with its own byte-run oracle.

    ``offsets``/``lengths`` list every data run of ``count`` instances,
    derived from the geometry parameters alone — never from
    ``repro.mpi.flatten`` — so the check is independent of the engine.
    """

    label: str
    make: object            # () -> committed repro Datatype, or None
    count: int
    extent: int             # bytes spanned by ``count`` instances
    offsets: np.ndarray
    lengths: np.ndarray

    @property
    def size(self) -> int:
        return int(self.lengths.sum())

    def mask(self) -> np.ndarray:
        """Boolean data-byte mask over ``extent`` (gaps are False)."""
        starts = np.bincount(self.offsets, minlength=self.extent + 1)
        ends = np.bincount(self.offsets + self.lengths,
                           minlength=self.extent + 1)
        return np.cumsum(starts - ends)[:-1] > 0


def _contiguous_layout(total: int) -> Layout:
    return Layout("contiguous", lambda: None, 1, total,
                  np.array([0]), np.array([total]))


def _vector_layout(block: int, total: int) -> Layout:
    nblocks, doubles = total // block, block // 8
    offsets = np.arange(nblocks) * (2 * block)
    return Layout(
        f"vector-b{block}",
        lambda: Vector(nblocks, doubles, 2 * doubles, DOUBLE).commit(),
        1, (nblocks - 1) * 2 * block + block,
        offsets, np.full(nblocks, block))


def _double_strided_layout(block: int, inner_blocks: int,
                           total: int) -> Layout:
    """Paper Fig. 2: rows of strided blocks separated by a gap row."""
    doubles = block // 8
    nrows = total // (inner_blocks * block)
    inner_extent = (inner_blocks - 1) * 2 * block + block
    row_stride = 2 * inner_extent + block

    def make():
        inner = Vector(inner_blocks, doubles, 2 * doubles, DOUBLE)
        return Hvector(nrows, 1, row_stride, inner).commit()

    offsets = (np.arange(nrows)[:, None] * row_stride
               + np.arange(inner_blocks)[None, :] * 2 * block).ravel()
    return Layout(f"double-b{block}x{inner_blocks}", make, 1,
                  (nrows - 1) * row_stride + inner_extent,
                  offsets, np.full(offsets.size, block))


def _indexed_layout(rng: np.random.Generator, mean_doubles: int,
                    total: int) -> Layout:
    """Seeded irregular blocks: lengths and gaps uniform around the mean."""
    nblocks = total // (8 * mean_doubles)
    lengths = rng.integers(1, 2 * mean_doubles, nblocks)
    gaps = rng.integers(1, 2 * mean_doubles, nblocks)
    displs = np.concatenate(([0], np.cumsum(lengths + gaps)[:-1]))
    blocklengths, displacements = lengths.tolist(), displs.tolist()
    return Layout(
        f"indexed-m{8 * mean_doubles}",
        lambda: Indexed(blocklengths, displacements, DOUBLE).commit(),
        1, int(displs[-1] + lengths[-1]) * 8, displs * 8, lengths * 8)


def _struct_layout(rng: np.random.Generator, max_block: int,
                   count: int) -> Layout:
    """Seeded record of four typed fields with holes, sent ``count``
    times.  The block count is fixed (it sets the host cost); the field
    lengths, and with them the payload, vary by seed."""
    types = (BYTE, SHORT, INT, DOUBLE)
    blocklengths = rng.integers(max_block // 2 + 1, max_block + 1,
                                len(types)).tolist()
    displacements, cursor = [], 0
    for blk, ftype in zip(blocklengths, types):
        cursor += int(rng.integers(0, 3)) * 8      # hole before the field
        displacements.append(cursor)
        cursor += -(-blk * ftype.size // 8) * 8    # keep fields 8-aligned
    record = cursor + 8                            # hole between records
    field_bytes = np.array([b * t.size for b, t in zip(blocklengths, types)])

    def make():
        return Resized(Struct(blocklengths, displacements, types),
                       0, record).commit()

    offsets = (np.arange(count)[:, None] * record
               + np.array(displacements)[None, :]).ravel()
    return Layout(f"struct-f{max_block}x{count}", make, count,
                  count * record, offsets, np.tile(field_bytes, count))


class NoncontigCell(Cell):
    """``sends`` one-way sends of one committed datatype, rank 0 -> 1.

    Every send has its own source bytes and its own receive buffer, so
    the check covers each of them: data runs must equal the source, the
    gaps of the strided receive must still hold the sentinel.
    """

    def __init__(self, layout: Layout, mode: str, internode: bool,
                 sends: int, base: np.ndarray):
        where = "sci" if internode else "shm"
        self.name = f"{layout.label}-{layout.size}-{mode}-{where}"
        self.layout, self.mode, self.internode = layout, mode, internode
        # Source k is the base pattern shifted by k bytes: distinct
        # contents per send without copying.
        self.sources = [base[k:k + layout.extent] for k in range(sends)]
        self.received: list = []

    def build(self):
        protocol = DEFAULT_PROTOCOL.with_mode(self.mode)
        if self.internode:
            self.cluster = Cluster(n_nodes=2, protocol=protocol)
        else:
            self.cluster = Cluster(n_nodes=1, procs_per_node=2,
                                   protocol=protocol)

    def run(self):
        layout = self.layout
        dtype = layout.make()
        kwargs = ({} if dtype is None
                  else {"datatype": dtype, "count": layout.count})

        def program(ctx):
            comm = ctx.comm
            bufs = [ctx.alloc(layout.extent) for _ in self.sources]
            if comm.rank == 0:
                for buf, source in zip(bufs, self.sources):
                    buf.write(source)
            else:
                for buf in bufs:
                    buf.fill(SENTINEL)
                self.received = bufs
            yield from comm.barrier()
            t0 = ctx.now
            for tag, buf in enumerate(bufs):
                if comm.rank == 0:
                    yield from comm.send(buf, dest=1, tag=tag, **kwargs)
                else:
                    yield from comm.recv(buf, source=0, tag=tag, **kwargs)
            return ctx.now - t0

        self.sim_us = self.cluster.run(program).results[1]
        self.counts = self.cluster.metrics.snapshot()

    def check(self):
        mask = self.layout.mask()
        failures = [
            f"{self.name}: send {k} delivered wrong bytes"
            for k, (buf, source) in enumerate(zip(self.received,
                                                  self.sources))
            if not np.array_equal(buf.read(),
                                  np.where(mask, source, SENTINEL))
        ]
        sends = len(self.sources)
        return CellResult(self.sim_us, self.layout.size * sends, sends,
                          self.counts, failures)


_MODES = (NonContigMode.GENERIC, NonContigMode.DIRECT)


def noncontig(seed: int) -> Iterator[Cell]:
    size = SIZES["noncontig"]
    rng = np.random.default_rng([seed, 1])
    sends = size["sends_per_cell"]
    # Fig. 7: the blocksize sweep against the contiguous reference, at
    # two payloads, over SCI and through shared memory.
    base = _pattern(rng, 2 * max(size["payloads"]) + sends)
    for total in size["payloads"]:
        # The larger payload runs over SCI only: it is there for the
        # O(count) datatype cost, which the locality does not change.
        for internode in ((True, False) if total == min(size["payloads"])
                          else (True,)):
            # The reference moves no datatype, so the mode is moot.
            yield NoncontigCell(_contiguous_layout(total),
                                NonContigMode.DIRECT, internode, sends, base)
            for block in size["blocksizes"]:
                layout = _vector_layout(block, total)
                for mode in _MODES:
                    yield NoncontigCell(layout, mode, internode, sends, base)
    # The pack oracle's other families, seeded: the flattening algorithm
    # is generic, so complex trees must cost about what vectors cost.
    total = size["family_payload"]
    families = [
        _double_strided_layout(64, int(rng.integers(4, 13)), total),
        _double_strided_layout(4096, int(rng.integers(4, 13)), total),
        _indexed_layout(rng, 2, total),
        _indexed_layout(rng, 32, total),
        _indexed_layout(rng, 512, total),
        _struct_layout(rng, 4, size["struct_records"][0]),
        _struct_layout(rng, 64, size["struct_records"][1]),
    ]
    base = _pattern(rng, max(f.extent for f in families) + sends)
    for layout in families:
        for mode in _MODES:
            yield NoncontigCell(layout, mode, True, sends, base)


# -- sparse_put / sparse_get ---------------------------------------------------


class SparseCell(Cell):
    """Fig. 8/9: stride-2 accesses over the partner's window part.

    Two ranks on two nodes sweep each other's window inside one fence
    epoch.  The sweep stops ``tail`` bytes (seeded, below 1 KiB) short
    of the window's end, so the call count differs a little by seed.
    """

    def __init__(self, op: str, shared: bool, access: int, tail: int,
                 patterns: list[np.ndarray]):
        self.name = (f"{op}-{'shared' if shared else 'private'}-a{access}"
                     f"-t{tail}")
        self.op, self.shared, self.access = op, shared, access
        self.winbytes = SIZES[f"sparse_{op}"]["window"]
        calls = (self.winbytes - tail - access) // (2 * access) + 1
        self.offsets = [k * 2 * access for k in range(calls)]
        self.patterns = patterns
        self.wins: dict[int, object] = {}
        self.fetched: dict[int, list] = {}

    def build(self):
        self.cluster = Cluster(n_nodes=2)

    def run(self):
        access, offsets, put = self.access, self.offsets, self.op == "put"

        def program(ctx):
            comm = ctx.comm
            rank = comm.rank
            win = yield from comm.win_create(self.winbytes,
                                             shared=self.shared)
            self.wins[rank] = win
            partner = 1 - rank
            # Puts carry this rank's pattern into a sentinel-filled
            # window; gets read the partner's pattern out of its window.
            win.local_view()[:] = SENTINEL if put else self.patterns[rank]
            source = self.patterns[rank]
            fetched = self.fetched[rank] = []
            yield from ctx.flush_cache()
            yield from win.fence()
            t0 = ctx.now
            for off in offsets:
                if put:
                    yield from win.put(source[off:off + access], partner,
                                       off)
                else:
                    fetched.append((yield from win.get(access, partner,
                                                       off)))
            yield from win.fence()
            return ctx.now - t0

        self.sim_us = max(self.cluster.run(program).results)
        self.counts = self.cluster.metrics.snapshot()

    def check(self):
        access = self.access
        index = (np.array(self.offsets)[:, None]
                 + np.arange(access)[None, :]).ravel()
        failures = []
        for rank in (0, 1):
            theirs = self.patterns[1 - rank]
            if self.op == "put":
                expected = np.full(self.winbytes, SENTINEL, dtype=np.uint8)
                expected[index] = theirs[index]
                ok = np.array_equal(self.wins[rank].local_view(), expected)
            else:
                got = np.concatenate(self.fetched[rank])
                ok = np.array_equal(got, theirs[index])
            if not ok:
                failures.append(f"{self.name}: rank {rank} holds wrong bytes")
        ops = 2 * len(self.offsets)
        return CellResult(self.sim_us, ops * access, ops, self.counts,
                          failures)


def _sparse(op: str, seed: int) -> Iterator[Cell]:
    size = SIZES[f"sparse_{op}"]
    rng = np.random.default_rng([seed, 2])
    patterns = [_pattern(rng, size["window"]) for _ in range(2)]
    tail = 8 * int(rng.integers(0, 128))
    for shared in (True, False):
        for access in size["access_sizes"]:
            yield SparseCell(op, shared, access, tail, patterns)


def sparse_put(seed: int) -> Iterator[Cell]:
    return _sparse("put", seed)


def sparse_get(seed: int) -> Iterator[Cell]:
    return _sparse("get", seed)


# -- rndv_stream / collective_scale --------------------------------------------


class StreamCell(Cell):
    """Back-to-back large contiguous sends on an idle 2-node fabric —
    the regime the closed-form windows were built for."""

    def __init__(self, sizes: list[int], pattern: np.ndarray):
        self.name = f"stream-2n-{len(sizes)}x"
        self.sizes, self.pattern = sizes, pattern
        self.bad_stamps = 0

    def build(self):
        self.cluster = Cluster(n_nodes=2)

    def run(self):
        sizes, pattern = self.sizes, self.pattern

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(pattern.size)
            view = buf.read()
            if comm.rank == 0:
                view[:] = pattern
            else:
                view[:] = SENTINEL
                self.received = buf
            t0 = ctx.now
            for index, nbytes in enumerate(sizes):
                stamp = index % 251
                # Stamp both ends of each message: a cheap per-message
                # check; the whole buffer is compared after the run.
                if comm.rank == 0:
                    view[0] = view[nbytes - 1] = stamp
                    yield from comm.send(buf, dest=1, count=nbytes)
                else:
                    yield from comm.recv(buf, source=0, count=nbytes)
                    if view[0] != stamp or view[nbytes - 1] != stamp:
                        self.bad_stamps += 1
            return ctx.now - t0

        self.sim_us = self.cluster.run(program).results[1]
        self.counts = self.cluster.metrics.snapshot()

    def check(self):
        failures = []
        if self.bad_stamps:
            failures.append(f"{self.name}: {self.bad_stamps} messages "
                            "arrived with wrong stamps")
        # Every message started at byte 0, so the receiver must hold the
        # pattern with the stamps of each message's last byte on top, and
        # the sentinel beyond the longest message.
        expected = self.pattern.copy()
        for index, nbytes in enumerate(self.sizes):
            expected[0] = expected[nbytes - 1] = index % 251
        expected[max(self.sizes):] = SENTINEL
        if not np.array_equal(self.received.read(), expected):
            failures.append(f"{self.name}: receive buffer differs")
        return CellResult(self.sim_us, sum(self.sizes), len(self.sizes),
                          self.counts, failures)


class CollectiveCell(Cell):
    """``iterations`` x (bcast from rank 0 + byte-sum allreduce).

    Rank r contributes ``pattern + r`` (mod 256), so the allreduce has
    the closed form ``n * pattern + n(n-1)/2`` (mod 256).
    """

    def __init__(self, name: str, n_nodes: int, nbytes: int, iterations: int,
                 pattern: np.ndarray, topology=None, policy=None):
        self.name = name
        self.n_nodes, self.nbytes, self.iterations = n_nodes, nbytes, iterations
        self.pattern = pattern[:nbytes]
        self.topology, self.policy = topology, policy
        self.buffers: dict[int, tuple] = {}

    def build(self):
        self.cluster = Cluster(n_nodes=self.n_nodes, topology=self.topology,
                               policy=self.policy)

    def run(self):
        nbytes, pattern = self.nbytes, self.pattern

        def program(ctx):
            comm = ctx.comm
            cast, send, recv = (ctx.alloc(nbytes) for _ in range(3))
            self.buffers[comm.rank] = (cast, recv)
            if comm.rank == 0:
                cast.write(pattern)
            send.write(pattern + np.uint8(comm.rank % 256))
            t0 = ctx.now
            for _ in range(self.iterations):
                yield from comm.bcast(cast, root=0, datatype=BYTE,
                                      count=nbytes)
                yield from comm.allreduce(send, recv, op="sum",
                                          datatype=BYTE, count=nbytes)
            return ctx.now - t0

        self.sim_us = max(self.cluster.run(program).results)
        self.counts = self.cluster.metrics.snapshot()

    def check(self):
        n = self.n_nodes
        total = (self.pattern.astype(np.int64) * n + n * (n - 1) // 2) % 256
        total = total.astype(np.uint8)
        failures = []
        for rank, (cast, recv) in sorted(self.buffers.items()):
            if not np.array_equal(cast.read(), self.pattern):
                failures.append(f"{self.name}: rank {rank} bcast differs")
            if not np.array_equal(recv.read(), total):
                failures.append(f"{self.name}: rank {rank} allreduce differs")
        ops = 2 * self.iterations
        return CellResult(self.sim_us, ops * n * self.nbytes, ops,
                          self.counts, failures)


def rndv_stream(seed: int) -> Iterator[Cell]:
    size = SIZES["rndv_stream"]
    rng = np.random.default_rng([seed, 3])
    message = size["message"]
    pattern = _pattern(rng, message)
    # Message sizes: the nominal size less a seeded whole number of
    # 64-byte lines (at most 64 KiB), so the chunk tails differ by seed.
    sizes = (message
             - 64 * rng.integers(0, 1024, size["stream_messages"])).tolist()
    nbytes = message - 64 * int(rng.integers(0, 1024))
    nodes = size["ring_nodes"]
    yield StreamCell(sizes, pattern)
    yield CollectiveCell(f"ring-{nodes}n", nodes, nbytes,
                         size["ring_iterations"], pattern)


def collective_scale(seed: int) -> Iterator[Cell]:
    size = SIZES["collective_scale"]
    rng = np.random.default_rng([seed, 4])
    pattern = _pattern(rng, size["message"])
    # The nominal size less a seeded whole number of doubles (< 1 KiB).
    nbytes = size["message"] - 8 * int(rng.integers(0, 128))
    ringlet = size["ringlet"]
    for n_nodes, hierarchical in size["cells"]:
        kind = "hier" if hierarchical else "flat"
        yield CollectiveCell(
            f"{kind}-{n_nodes}n", n_nodes, nbytes, size["iterations"], pattern,
            topology=RingOfRings(n_nodes // ringlet, ringlet),
            policy=ChunkedCollectivesPolicy(hier_collectives=hierarchical))


# -- kv_overload ---------------------------------------------------------------


class KvCell(Cell):
    """One fixed offered rate against the chain-replicated store, open
    loop: arrivals come off a seeded exponential clock on the simulated
    time axis, so the generator cannot run late and a slow service
    queues (and beyond the bounded queue, sheds) instead of slowing the
    load down."""

    def __init__(self, rate_ops: int, seed: int):
        size = SIZES["kv_overload"]
        self.name = f"r{rate_ops // 1000}k"
        self.rate_ops = rate_ops
        self.value_size = size["value_size"]
        workload = WorkloadSpec(
            n_keys=size["keys"], read_fraction=size["read_fraction"],
            incr_fraction=0.0, dist="uniform",
            ops_per_client=size["arrivals_per_client"],
            value_size=self.value_size, seed=seed)
        self.config = ReplicatedServiceConfig(
            n_groups=size["groups"], replication=size["replication"],
            n_clients=size["clients"],
            open_loop=OpenLoopSpec(
                mean_interarrival_us=1e6 * size["clients"] / rate_ops,
                max_queue=size["max_queue"]),
            workload=workload)

    def run(self):
        self.report = run_replicated_service(self.config)

    def check(self):
        report = self.report
        load = report["open_loop"]
        counts = report["metrics"]
        failures = []
        if not report["verified"]:
            bad = [k for k, c in report["checks"].items() if not c["ok"]]
            failures.append(f"{self.name}: checks failed: {bad}")
        if load["served"] + load["shed"] != load["arrivals"]:
            failures.append(f"{self.name}: arrivals unaccounted for")
        sojourn = report["latency_us"]["sojourn"]
        extra = {
            "arrivals": load["arrivals"], "served": load["served"],
            "shed": load["shed"], "p99_us": sojourn["p99"],
            "max_sojourn_us": counts["repl.sojourn_latency_us.max"],
            "queue_wait_sum_us": (counts["repl.sojourn_latency_us.sum"]
                                  - counts["repl.service_latency_us.sum"]),
        }
        # Open loop, the elapsed time is set by the arrival schedule, not
        # by the service; the simulated cost of the cell's work is the
        # summed service time of the operations it served.
        return CellResult(counts["repl.service_latency_us.sum"],
                          load["served"] * self.value_size,
                          load["arrivals"], counts, failures, extra)


def kv_overload(seed: int) -> Iterator[Cell]:
    for rate in SIZES["kv_overload"]["rates_ops"]:
        yield KvCell(rate, seed)


# -- scenario_matrix -----------------------------------------------------------


class ScenarioCell(Cell):
    def __init__(self, scenario: str, seed: int, faults: bool):
        self.name = f"{scenario}-s{seed}-{'faulty' if faults else 'clean'}"
        self.args = (scenario, seed, faults)

    def run(self):
        scenario, seed, faults = self.args
        self.report = run_scenario(
            scenario, seed=seed, faults=faults,
            scale=SIZES["scenario_matrix"]["scale"]).report

    def check(self):
        report = self.report
        failures = []
        if not (report["verified"] and report["invariants_ok"]):
            failures.append(f"{self.name}: verified={report['verified']} "
                            f"invariants_ok={report['invariants_ok']}")
        counters = report["scenario_counters"]
        return CellResult(report["elapsed_us"], counters["payload_bytes"],
                          1, report["metrics"], failures)


def scenario_matrix(seed: int) -> Iterator[Cell]:
    size = SIZES["scenario_matrix"]
    # Scenario seeds are folded into 1..seed_space: every cell of that
    # space was verified when the benchmark was defined.
    seeds = [1 + (size["seeds_per_run"] * seed + i) % size["seed_space"]
             for i in range(size["seeds_per_run"])]
    for scenario in scenario_names():
        for faults in (False, True):
            for s in seeds:
                yield ScenarioCell(scenario, s, faults)


WORKLOAD_CELLS = {
    "noncontig": noncontig,
    "sparse_put": sparse_put,
    "sparse_get": sparse_get,
    "rndv_stream": rndv_stream,
    "collective_scale": collective_scale,
    "kv_overload": kv_overload,
    "scenario_matrix": scenario_matrix,
}


def cells_for(workload: str, seed: int) -> Iterator[Cell]:
    """The workload's cells for one repeat, made lazily: the driver
    drops each cell (and its cluster's memory) before the next."""
    return WORKLOAD_CELLS[workload](seed)
