"""The one-sided verdict: every remote put and get takes its cheapest way.

``TransferScheduler.osc_verdict`` prices DIRECT against EMULATED (a put)
or REMOTE_PUT (a get) on a shared window, and EMULATED against BATCHED
for a put into or a get from private memory, from the costs the
protocol bodies charge, and memoizes the answer per target shape.  These tests hold the default
to the best forced strategy and to the per-block decomposition of the
same bytes (the self-consistent performance guidelines of Traff, Hunold
and Carpen-Amarie), pin the pricing work the hot path pays, and pin the
event counts of the direct, the emulated and the batched put and of the
emulated and the batched get.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._units import KiB
from repro.bench.sparse import run_sparse
from repro.cluster import Cluster
from repro.mpi.datatypes import DOUBLE, Indexed, Vector
from repro.mpi.flatten import get_plan
from repro.mpi.osc.messages import OSCGet
from repro.mpi.osc.window import OSCEngine
from repro.mpi.transport import (
    OSCStrategy,
    PaperThresholdPolicy,
    TransferPolicy,
    fastpath_disabled,
)
from repro.mpi.transport.layout import as_access_run
from repro.mpi.transport.scheduler import TransferScheduler

from ._guidelines import BOUND, Forced, assert_within_bound


def _blocks(dtype, nbytes):
    """``(offset, length)`` of the target's runs (one run untyped)."""
    if dtype is None:
        return [(0, nbytes)]
    plan = get_plan(dtype.commit().flattened, 1)
    return list(zip(plan.run_offsets.tolist(), plan.run_lengths.tolist()))


def _epoch(op, nbytes, shared, local, dtype=None, disp=0, policy=None,
           decompose=False):
    """Rank 0's time from its call to the end of the closing fence, and
    its window counters: one typed call, or one untyped call per block."""
    elapsed, counters, _ = _run(op, nbytes, shared, local, dtype, disp,
                                policy, decompose)
    return elapsed, counters


def _run(op, nbytes, shared, local, dtype, disp, policy, decompose):
    """:func:`_epoch`, plus how long remote-put handlers held rank 1's
    service loop (the hold the verdict's price adds)."""
    blocks = _blocks(dtype, nbytes)
    size = disp + max(o + n for o, n in blocks) + 64

    def program(ctx):
        win = yield from ctx.comm.win_create(size, shared=shared)
        yield from win.fence()
        t0 = ctx.now
        if ctx.comm.rank == 0:
            calls = ([(disp + o, n, None) for o, n in blocks] if decompose
                     else [(disp, nbytes, dtype)])
            for at, n, target_type in calls:
                if op == "put":
                    yield from win.put(np.zeros(n, np.uint8), 1, at,
                                       target_datatype=target_type)
                else:
                    yield from win.get(n, 1, at, target_datatype=target_type)
        yield from win.fence()
        return ctx.now - t0, dict(win.counters)

    cluster = (Cluster(n_nodes=1, procs_per_node=2, policy=policy) if local
               else Cluster(n_nodes=2, policy=policy))
    held = []
    serve = OSCEngine.serve

    def timed(self, msg, local=False):
        t0 = self.device.engine.now - self.device.config.poll_latency
        result = yield from serve(self, msg, local)
        if isinstance(msg, OSCGet):
            held.append(self.device.engine.now - t0)
        return result

    OSCEngine.serve = timed
    try:
        elapsed, counters = cluster.run(program).results[0]
    finally:
        OSCEngine.serve = serve
    return elapsed, counters, sum(held)


def _forced(op, single_run, shared):
    if not shared:
        return (OSCStrategy.BATCHED, OSCStrategy.EMULATED)
    if op == "put":
        return (OSCStrategy.DIRECT, OSCStrategy.EMULATED)
    if single_run:
        return (OSCStrategy.DIRECT, OSCStrategy.REMOTE_PUT)
    return (OSCStrategy.REMOTE_PUT,)


@st.composite
def _targets(draw):
    """A target layout of 8 B - 64 KiB: untyped, a Vector or an Indexed
    of at most 64 blocks (so the decomposition stays cheap to run)."""
    kind = draw(st.sampled_from(["contiguous", "vector", "indexed"]))
    if kind == "contiguous":
        return None, 8 * draw(st.integers(1, 8 * KiB))
    if kind == "vector":
        count = draw(st.integers(2, 64))
        length = draw(st.integers(1, 8 * KiB // count))
        gap = draw(st.integers(1, 64))
        dtype = Vector(count, length, length + gap, DOUBLE)
    else:
        lengths = draw(st.lists(st.integers(1, 128), min_size=2, max_size=32))
        gaps = draw(st.lists(st.integers(1, 64), min_size=len(lengths),
                             max_size=len(lengths)))
        displs = np.cumsum([0] + [n + g for n, g in zip(lengths, gaps)])
        dtype = Indexed(lengths, displs[:-1].tolist(), DOUBLE)
    return dtype.commit(), dtype.size


def _irregular(count, block):
    """``count`` blocks of ``block`` bytes at seeded irregular gaps."""
    gaps = np.random.default_rng(33).integers(2, 5, count) * block
    displs = np.cumsum(gaps) - gaps[0]
    return Indexed([block // 8] * count, (displs // 8).tolist(), DOUBLE).commit()


def _typed(dtype):
    return dtype, dtype.size


class TestSelfConsistency:
    """The default's call time is within 5 % of each forced strategy (on a
    private window: per-call emulation and batching) and of the
    per-block decomposition of the same bytes.  Two kinds of get
    are known to lose; a drawn case of either kind is not asserted, and
    each kind is pinned by strict ``xfail`` examples at its measured
    ratio (EXPERIMENTS.md, "One-sided verdict"):

    * a typed get of several blocks packs along the plan at the target
      and loses to one get per block;
    * a get the verdict reads directly although a forced remote-put
      returns sooner: the price charges the remote-put handler's hold on
      the target's service loop, which one call's time does not show.

    So do two kinds of typed put, each pinned the same way: one over SCI
    above 128 kiB, beyond the drawn 64 kiB targets (``src_cached`` is
    decided per message, so its source is read cold while each 4 kiB
    call of the decomposition reads warm); and an emulated one of a few
    large blocks, whose one handler copies after its one shipment while
    the decomposition's second shipment overlaps the first copy.
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(target=_targets(), op=st.sampled_from(["put", "get"]),
           shared=st.booleans(), local=st.booleans(),
           disp=st.sampled_from([0, 8, 24, 40]), pinned=st.just(False))
    @example(target=_typed(_irregular(32, 4 * KiB)), op="put", shared=True,
             local=False, disp=0, pinned=True)
    @example(target=_typed(_irregular(32, 4 * KiB)), op="put", shared=True,
             local=True, disp=0, pinned=True)
    @example(target=_typed(_irregular(33, 4 * KiB)), op="put", shared=True,
             local=False, disp=0, pinned=True).xfail(
                 raises=AssertionError, reason="1.164x its decomposition")
    @example(target=(None, 320), op="get", shared=True, local=False,
             disp=0, pinned=True).xfail(raises=AssertionError, reason=(
                 "read directly, 1.42x a lone remote-put"))
    @example(target=_typed(_irregular(16, 4 * KiB)), op="get", shared=True,
             local=False, disp=0, pinned=True).xfail(
                 raises=AssertionError, reason="1.18x its decomposition")
    @example(target=_typed(_irregular(32, 512)), op="get", shared=True,
             local=True, disp=0, pinned=True).xfail(
                 raises=AssertionError, reason="3.4x its decomposition")
    @example(target=_typed(Vector(2, 512, 520, DOUBLE).commit()), op="get",
             shared=False, local=False, disp=0, pinned=True).xfail(
                 raises=AssertionError, reason="1.23x its decomposition")
    @example(target=_typed(Vector(2, 4000, 4003, DOUBLE).commit()), op="put",
             shared=False, local=False, disp=0, pinned=True).xfail(
                 raises=AssertionError, reason="1.055x its decomposition")
    def test_default_within_5pct_of_every_alternative(
            self, target, op, shared, local, disp, pinned):
        dtype, nbytes = target
        default, counters, _ = _run(op, nbytes, shared, local, dtype, disp,
                                    None, False)
        single = dtype is None or as_access_run(dtype.flattened, 1) is not None
        for strategy in _forced(op, single, shared):
            forced, _, held = _run(op, nbytes, shared, local, dtype, disp,
                                   Forced(osc=strategy), False)
            if (not pinned and op == "get" and counters["direct_gets"]
                    and default <= BOUND * (forced + held)):
                continue  # the hold the price charges
            assert_within_bound(default, forced, strategy)
        if not pinned and op == "get" and len(_blocks(dtype, nbytes)) > 1:
            return  # packs at the target
        split, _ = _epoch(op, nbytes, shared, local, dtype, disp,
                          decompose=True)
        assert_within_bound(default, split, "split")


class TestVerdict:
    @pytest.mark.parametrize("nbytes, strategy", [
        (8, "direct_gets"), (64, "direct_gets"), (384, "direct_gets"),
        (448, "remote_puts"), (1 * KiB, "remote_puts"),
        (64 * KiB, "remote_puts"),
    ])
    def test_contiguous_get_crossover(self, nbytes, strategy):
        """Over SCI a stalled 64 B read transaction costs 3.1 us; a
        remote-put costs its interrupt plus the handler's hold on the
        target, which seven reads outweigh."""
        _, counters = _epoch("get", nbytes, True, False)
        assert counters[strategy] == 1

    @pytest.mark.parametrize("local", [False, True])
    def test_irregular_typed_put_stores_directly(self, local):
        """32 x 4 KiB at irregular displacements stores directly through
        the target plan and stays within 5 % of its 32-call
        decomposition: over SCI direct_pack_ff 751.6 us, emulation 901.1,
        decomposition 769.9; on one node a block copy on the memory bus
        326.2 us, emulation's two copies 654.8, decomposition 335.5."""
        dtype = _irregular(32, 4 * KiB)
        typed, counters = _epoch("put", dtype.size, True, local, dtype)
        split, _ = _epoch("put", dtype.size, True, local, dtype,
                          decompose=True)
        assert counters["direct_puts"] == 1
        assert_within_bound(typed, split)
        window = _typed_put_bytes(dtype, local)
        expected = np.zeros_like(window)
        for offset, length in _blocks(dtype, dtype.size):
            expected[offset:offset + length] = 7
        assert np.array_equal(window, expected)

    def test_one_node_strided_put_no_cheaper_than_contiguous(self):
        """A strided walk copies the same bytes as a contiguous one, at the
        rate of its working set: 256 kiB in 4 kiB blocks on one node is
        1,043.1 us against 1,042.4 for one contiguous put (the per-block
        terms), not 651.7 at the rate of one block."""
        vec = Vector(64, 512, 1024, DOUBLE).commit()
        strided, counters = _epoch("put", vec.size, True, True, vec)
        contiguous, _ = _epoch("put", vec.size, True, True)
        assert counters["direct_puts"] == 1
        assert contiguous <= strided == pytest.approx(1043.1, abs=0.05)

    @pytest.mark.parametrize("local", [False, True])
    def test_emulated_typed_put_scatters_in_an_ff_loop(self, local):
        """The handler of an emulated typed put scatters the staged bytes
        along the target plan: the copy of an untyped put plus the ff
        loop's per-run cost, which the verdict prices too.  32 x 512 B
        stores directly: 41.3 us on one node (emulated 85.1), 96.4 over
        SCI (emulated 124.6)."""
        dtype = _irregular(32, 512)
        plan = get_plan(dtype.flattened, 1)
        emulate = Forced(osc=OSCStrategy.EMULATED)
        typed, _ = _epoch("put", dtype.size, True, local, dtype,
                          policy=emulate)
        cluster = (Cluster(n_nodes=1, procs_per_node=2) if local
                   else Cluster(n_nodes=2))
        price = cluster.world.device(0).scheduler.osc_price(
            OSCStrategy.EMULATED, "put", None, plan, 0, dtype.size, 1)
        assert typed == pytest.approx(price, rel=0.01)
        if not local:   # the handler's copy is alone on the target's CPU
            untyped, _ = _epoch("put", dtype.size, True, local,
                                policy=emulate)
            assert typed - untyped == pytest.approx(
                32 * cluster.world.config.direct_pack_block_cost)
        _, counters = _epoch("put", dtype.size, True, local, dtype)
        assert counters["direct_puts"] == 1

    @pytest.mark.parametrize("local", [False, True])
    def test_untyped_put_is_direct_unpriced(self, monkeypatch, local):
        """Emulation ships the same bytes, then pays a handler and, over
        SCI, an interrupt (more than a 2-node fence saves) or, on one
        node, a second copy on the memory bus."""
        _forbid_pricing(monkeypatch)
        _, counters = _epoch("put", 64 * KiB, True, local)
        assert counters["direct_puts"] == 1


def _typed_put_bytes(dtype, local):
    """Rank 1's window after rank 0 put 7s through ``dtype`` at 0."""
    size = max(o + n for o, n in _blocks(dtype, dtype.size))

    def program(ctx):
        win = yield from ctx.comm.win_create(size, shared=True)
        win.local_view()[:] = 0
        yield from win.fence()
        if ctx.comm.rank == 0:
            yield from win.put(np.full(dtype.size, 7, np.uint8), 1, 0,
                               target_datatype=dtype)
        yield from win.fence()
        return np.array(win.local_view())

    cluster = (Cluster(n_nodes=1, procs_per_node=2) if local
               else Cluster(n_nodes=2))
    return cluster.run(program).results[1]


def _forbid_pricing(monkeypatch):
    def price(*args, **target):
        raise AssertionError("the verdict was priced")

    monkeypatch.setattr(TransferScheduler, "osc_price", price)


class TestPricingWork:
    """The hot path pays one dict lookup per call: a price is built once
    per rank and distinct verdict key (for a one-sided call: op, size,
    target shape, alignment of the displacement, destination node),
    never per call."""

    def test_each_decision_is_priced_once_per_rank_and_key(self,
                                                            monkeypatch):
        """All three decisions, each asked twice per rank: a miss asks
        ``force`` once and prices each candidate once; a hit does
        neither."""
        asked, priced = _spy_verdicts(monkeypatch)
        cluster = Cluster(n_nodes=4)
        cluster.run(_each_decision_twice)
        assert {key[0] for _, key in asked} == {"mode", "osc", "coll"}
        assert len(asked) == len(set(asked))
        assert len(priced) == len(set(priced))
        assert {(rank, key) for rank, key, _ in priced} == set(asked)
        assert sum(len(d.scheduler.verdicts)
                   for d in cluster.world.devices) == len(asked)

    def test_nothing_is_memoized_without_the_fast_path(self, monkeypatch):
        asked, _ = _spy_verdicts(monkeypatch)
        cluster = Cluster(n_nodes=4)
        with fastpath_disabled():
            cluster.run(_each_decision_twice)
        assert all(not d.scheduler.verdicts for d in cluster.world.devices)
        assert len(asked) == 2 * len(set(asked))

    def test_the_reference_engine_reads_no_memo(self, monkeypatch):
        """A memo that a fast-path run filled is not read by a later
        event-stepped run: each call decides afresh, to the same
        verdict."""
        asked, _ = _spy_verdicts(monkeypatch)
        cluster = Cluster(n_nodes=4)
        cluster.run(_each_decision_twice)
        memo = [dict(d.scheduler.verdicts) for d in cluster.world.devices]
        fast = len(asked)
        with fastpath_disabled():
            cluster.run(_each_decision_twice)
        assert len(asked) - fast == 2 * fast
        assert set(asked[fast:]) == set(asked[:fast])
        assert [d.scheduler.verdicts for d in cluster.world.devices] == memo

    @pytest.mark.parametrize("access, alignments", [(8, 4), (64, 1)])
    def test_sparse_get_sweep_prices_each_key_once(self, monkeypatch, access,
                                                   alignments):
        prices = _count_prices(monkeypatch)
        result = run_sparse(access, op="get", shared=True)
        # Stride 2 x access: the displacements of 8 B gets fall on four
        # 16 B steps of the 64 B alignment; every 64 B get on one.
        assert result.calls > 1000
        assert len(prices) == 2 * 2 * alignments  # ranks x candidates x keys

    def test_ranks_on_one_node_share_a_price(self, monkeypatch):
        prices = _count_prices(monkeypatch)
        cluster = Cluster(n_nodes=2, procs_per_node=2)
        peers = [r for r in range(4) if cluster.world.smi.rank_to_node[r] == 1]

        def program(ctx):
            win = yield from ctx.comm.win_create(4 * KiB, shared=True)
            yield from win.fence()
            if ctx.comm.rank == 0:
                for peer in peers:
                    yield from win.get(64, peer, 128)
            yield from win.fence()

        cluster.run(program)
        assert len(peers) == 2
        assert prices == [(0, OSCStrategy.DIRECT), (0, OSCStrategy.REMOTE_PUT)]

    def test_direct_remote_put_is_4_events(self):
        assert _marginal_events("put", True) == 4

    def test_emulated_remote_put_is_10_events(self):
        """A private put emulated on its own call (the paper's policy)."""
        assert _marginal_events("put", False, PaperThresholdPolicy()) == 10

    def test_batched_remote_put_is_at_most_3_events(self):
        """The default queues a private 64 B put until the fence: its
        call, and its block in the staging copy of the one shipment."""
        assert _marginal_events("put", False) <= 3

    def test_emulated_get_is_13_events(self):
        """A private get emulated on its own call (the paper's policy)."""
        assert _marginal_events("get", False, PaperThresholdPolicy()) == 13

    def test_batched_get_is_at_most_3_events(self):
        """The default queues a private 64 B get until the fence: its call,
        and its run in the handler's gather of the one request."""
        assert _marginal_events("get", False) <= 3


def _each_decision_twice(ctx):
    """Twice over: a 32 KiB Vector message from rank 0 to 1 (the transfer
    mode of both sides), a 64 B get on rank 1's shared window (the
    one-sided strategy) and a 256 KiB broadcast over four ranks (the
    collective algorithm)."""
    comm = ctx.comm
    vec = Vector(4096, 1, 2, DOUBLE).commit()
    buf, big = ctx.alloc(vec.extent), ctx.alloc(256 * KiB)
    win = yield from comm.win_create(4 * KiB, shared=True)
    for _ in range(2):
        if comm.rank == 0:
            yield from comm.send(buf, dest=1, tag=0, datatype=vec, count=1)
        elif comm.rank == 1:
            yield from comm.recv(buf, source=0, tag=0, datatype=vec, count=1)
        yield from win.fence()
        if comm.rank == 0:
            yield from win.get(64, 1, 128)
        yield from win.fence()
        yield from comm.bcast(big, root=0, count=256 * KiB)


def _spy_verdicts(monkeypatch):
    """The ``(rank, key)`` of every ``force`` asked and the ``(rank, key,
    candidate)`` of every price built from now on."""
    asked, priced, cheapest = [], [], TransferScheduler.cheapest
    state = {}

    def spied(self, key, candidates, price):
        rank = state["rank"] = self.device.rank

        def counted(candidate):
            priced.append((rank, key, candidate))
            return price(candidate)

        return cheapest(self, key, candidates, counted)

    def force(self, key):
        asked.append((state["rank"], key))

    monkeypatch.setattr(TransferScheduler, "cheapest", spied)
    monkeypatch.setattr(TransferPolicy, "force", force)
    return asked, priced


def _count_prices(monkeypatch):
    """The ``(rank, strategy)`` of every price built from now on."""
    prices = []
    price = TransferScheduler.osc_price

    def counted(self, strategy, **target):
        prices.append((self.device.rank, strategy))
        return price(self, strategy, **target)

    monkeypatch.setattr(TransferScheduler, "osc_price", counted)
    return prices


def _marginal_events(op, shared, policy=None):
    """``sim.events`` one more 64 B call adds to a sweep."""
    def total(calls):
        def program(ctx):
            win = yield from ctx.comm.win_create(4 * KiB, shared=shared)
            yield from win.fence()
            if ctx.comm.rank == 0:
                for i in range(calls):
                    if op == "put":
                        yield from win.put(np.zeros(64, np.uint8), 1, 128 * i)
                    else:
                        yield from win.get(64, 1, 128 * i)
            yield from win.fence()

        cluster = Cluster(n_nodes=2, policy=policy)
        cluster.run(program)
        return cluster.metrics.snapshot()["sim.events"]

    return total(2) - total(1)
