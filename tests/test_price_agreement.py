"""Every price agrees with the body it mirrors.

A verdict ranks its candidates by a price written by hand: ``price`` for
the transfer mode, ``osc_price`` for a one-sided call.  Each is a sum of
what the protocol bodies charge.  This table holds each price to the
simulated time of the body it prices, for a lone call forced to each
candidate, at relative 1e-9, after named terms that no candidate changes
(a performance model must match what it models: Hunold, Carpen-Amarie
and Träff, *MPI Derived Datatypes: Performance Expectations and Status
Quo*).  The grid is sizes x {2 nodes over SCI, one node} x {untyped,
``Vector``, ``Indexed``} targets at displacement 0.

* ``"osc"`` rows: direct put, emulated put, direct get, remote-put and
  emulated get.  ``osc_price`` returns ``(origin, hold)``.  A get returns
  ``osc_call_overhead`` after ``origin``.  A put's epoch, from its call to
  the end of the closing fence, is its call overhead, ``origin`` (which
  holds the fence's call overhead and store barrier) and the fence's exit
  once the target already waits in it (:func:`_fence_exit`, 0.05 us).
  ``hold`` is how long the remote-put handler held the target's service
  loop, from its poll to its last response write.
* ``"mode"`` rows: the sender's plus the receiver's ``price`` under each
  forced ``noncontig_mode`` leave one residual for direct, generic and
  DMA, and for an untyped message of the same size: the control packets,
  polls and credits that ``price`` leaves out as costing the same in
  every mode.  It depends only on the route and the protocol
  (:data:`_LEFT_OUT`).
* Batched rows: a batched call's price is its marginal cost in a long
  stream, so it is checked as ``epoch(k + 1) - epoch(k)`` less the call
  overhead, at k = 16.  These rows disagree today: each is a strict
  ``xfail`` that names its measured / price ratio (:data:`_BATCHED`), and
  a ratio that moves fails outright.
* ``"coll"`` rows are out of scope: ``_stage_cycles`` prices a collective
  stage in abstract rendezvous cycles, not microseconds, until stages are
  priced from the per-message prices this table pins.
"""

import numpy as np
import pytest

from repro import NonContigMode, ProtocolConfig
from repro._units import KiB
from repro.cluster import Cluster
from repro.mpi.datatypes import BYTE, DOUBLE, Contiguous, Indexed, Vector
from repro.mpi.flatten import get_plan
from repro.mpi.osc.messages import OSCGet
from repro.mpi.osc.window import OSCEngine
from repro.mpi.transport import OSCStrategy, TransferMode
from repro.mpi.transport.layout import resolve_target

from ._guidelines import Forced

REL = 1e-9
ROUTES = {"sci": False, "one-node": True}
KINDS = ("untyped", "vector", "indexed")


def _cluster(local, **config):
    return (Cluster(n_nodes=1, procs_per_node=2, **config) if local
            else Cluster(n_nodes=2, **config))


def _target(kind, nbytes):
    """A target of ``nbytes``: untyped (``None``), a ``Vector`` of 64 B
    blocks 128 B apart, or an ``Indexed`` of four blocks at irregular
    gaps."""
    if kind == "untyped":
        return None
    if kind == "vector":
        return Vector(nbytes // 64, 8, 16, DOUBLE).commit()
    block = nbytes // 32
    return Indexed([block] * 4, [0, block + 3, 2 * block + 10, 3 * block + 12],
                   DOUBLE).commit()


def _epoch(op, strategy, shared, local, dtype, nbytes, calls, monkeypatch):
    """``calls`` forced calls from rank 0 to rank 1 in one fence epoch, the
    first at displacement 0, each 64 B-aligned and two target extents after
    the last.  Rank 0's time from its first call to its last call's return
    (``returned``) and to the end of the closing fence (``epoch``), the
    last call's ``osc_price`` and how long remote-put handlers held rank
    1's service loop (``held``)."""
    extent = nbytes if dtype is None else dtype.extent
    stride = -(-2 * extent // 64) * 64
    out = {"held": 0.0}
    serve = OSCEngine.serve

    def timed(self, msg, local=False):
        start = self.device.engine.now - self.device.config.poll_latency
        result = yield from serve(self, msg, local)
        if isinstance(msg, OSCGet):
            out["held"] += self.device.engine.now - start
        return result

    monkeypatch.setattr(OSCEngine, "serve", timed)

    def program(ctx):
        win = yield from ctx.comm.win_create(stride * calls, shared=shared)
        yield from win.fence()
        t0 = ctx.now
        if ctx.comm.rank == 0:
            for disp in range(0, stride * calls, stride):
                run, plan = resolve_target(win.part(1), disp, nbytes, dtype, 1)
                out["price"] = win.device.scheduler.osc_price(
                    strategy, op, run, plan, disp, nbytes, 1)
                if op == "put":
                    yield from win.put(np.zeros(nbytes, np.uint8), 1, disp,
                                       target_datatype=dtype)
                else:
                    yield from win.get(nbytes, 1, disp, target_datatype=dtype)
            out["returned"] = ctx.now - t0
        yield from win.fence()
        if ctx.comm.rank == 0:
            out["epoch"] = ctx.now - t0

    cluster = _cluster(local, policy=Forced(osc=strategy))
    cluster.run(program)
    monkeypatch.undo()
    return out, cluster.world.config.osc_call_overhead


def _fence_exit(local):
    """What the closing fence costs past its call overhead when the target
    already waits in it: rank 0 idles 50 us, then fences."""
    def program(ctx):
        win = yield from ctx.comm.win_create(64)
        yield from win.fence()
        t0 = ctx.now
        if ctx.comm.rank == 0:
            yield ctx.cluster.engine.timeout(50.0)
        yield from win.fence()
        return ctx.now - t0

    cluster = _cluster(local)
    return (cluster.run(program).results[0] - 50.0
            - cluster.world.config.osc_call_overhead)


# -- the "osc" rows -----------------------------------------------------------------

#: Each lone-call candidate: op, strategy, and whether the window is shared.
_OSC_ROWS = [("put", OSCStrategy.DIRECT, True),
             ("put", OSCStrategy.EMULATED, False),
             ("get", OSCStrategy.DIRECT, True),
             ("get", OSCStrategy.REMOTE_PUT, True),
             ("get", OSCStrategy.EMULATED, False)]


def _osc_grid():
    for route in ROUTES:
        for kind in KINDS:
            for nbytes in ((8,) if kind == "untyped" else ()) + (256, 4 * KiB, 64 * KiB):
                for op, strategy, shared in _OSC_ROWS:
                    if not (kind == "indexed" and op == "get"
                            and strategy == OSCStrategy.DIRECT):  # no strided run
                        yield pytest.param(op, strategy, shared, route, kind, nbytes,
                                           id=f"{op}-{strategy}-{route}-{kind}-{nbytes}")


@pytest.mark.parametrize("op, strategy, shared, route, kind, nbytes", _osc_grid())
def test_lone_call_takes_its_price(op, strategy, shared, route, kind, nbytes,
                                   monkeypatch):
    local = ROUTES[route]
    out, call = _epoch(op, strategy, shared, local, _target(kind, nbytes),
                       nbytes, 1, monkeypatch)
    origin, hold = out["price"]
    if op == "get":
        assert out["returned"] == pytest.approx(call + origin, rel=REL)
    else:
        assert out["epoch"] == pytest.approx(
            call + origin + _fence_exit(local), rel=REL)
    assert out["held"] == pytest.approx(hold, rel=REL)
    assert (hold > 0) == (op == "get" and strategy != OSCStrategy.DIRECT)


# -- the "mode" rows ----------------------------------------------------------------

#: The residual ``price`` leaves out (control packets, polls, credits), us,
#: by route and protocol: eager, or the number of rendezvous chunks.
_LEFT_OUT = {("sci", "eager"): 2.17, ("sci", 1): 3.07, ("sci", 2): 4.09,
             ("one-node", "eager"): 1.45, ("one-node", 1): 1.75,
             ("one-node", 2): 2.05}


def _message(dtype, mode, local):
    """The receiver's time for one message from rank 0 to rank 1 under a
    forced ``noncontig_mode``, less the sender's and the receiver's price
    of ``mode`` (``CONTIGUOUS`` for an untyped message)."""
    cluster = _cluster(local, protocol=ProtocolConfig(noncontig_mode=mode))

    def program(ctx):
        buf = ctx.alloc(dtype.extent)
        if ctx.comm.rank == 0:
            yield from ctx.comm.send(buf, dest=1, tag=0, datatype=dtype, count=1)
            return None
        yield from ctx.comm.recv(buf, source=0, tag=0, datatype=dtype, count=1)
        return ctx.now

    elapsed = cluster.run(program).results[1]
    plan = get_plan(dtype.flattened, 1)
    priced = TransferMode.CONTIGUOUS if dtype.is_contiguous else mode
    return elapsed - sum(
        cluster.world.device(rank).scheduler.price(priced, plan, plan.total,
                                                   local, rank == 0)
        for rank in (0, 1))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("nbytes, protocol", [(512, "eager"), (4 * KiB, "eager"),
                                              (64 * KiB, 1), (128 * KiB, 2)])
def test_every_mode_leaves_one_residual(route, nbytes, protocol):
    local = ROUTES[route]
    residuals = {("untyped", TransferMode.CONTIGUOUS): _message(
        Contiguous(nbytes, BYTE).commit(), NonContigMode.AUTO, local)}
    for kind in KINDS[1:]:
        for mode in (NonContigMode.DIRECT, NonContigMode.GENERIC,
                     NonContigMode.DMA):
            residuals[kind, mode] = _message(_target(kind, nbytes), mode, local)
    assert residuals == pytest.approx(
        dict.fromkeys(residuals, _LEFT_OUT[route, protocol]), rel=REL)


# -- the batched rows ---------------------------------------------------------------

#: Measured / price of one batched call's marginal time (k = 16), by op,
#: route and size: untyped, ``Vector``, ``Indexed`` targets.
_BATCHED = {
    ("put", "sci", 64): (0.888, 0.888, 0.897),
    ("put", "sci", 1 * KiB): (1.146, 1.142, 1.145),
    ("put", "sci", 4 * KiB): (1.154, 1.149, 1.154),
    ("put", "one-node", 64): (0.941, 0.941, 0.941),
    ("put", "one-node", 1 * KiB): (1.092, 1.092, 1.092),
    ("put", "one-node", 4 * KiB): (1.095, 1.095, 1.095),
    ("get", "sci", 64): (0.930, 0.930, 0.935),
    ("get", "sci", 1 * KiB): (0.995, 0.995, 0.995),
    ("get", "sci", 4 * KiB): (0.999, 0.999, 0.999),
    ("get", "one-node", 64): (0.904, 0.904, 0.912),
    ("get", "one-node", 1 * KiB): (0.993, 0.993, 0.993),
    ("get", "one-node", 4 * KiB): (0.998, 0.998, 0.998),
}


def _batched_grid():
    for (op, route, nbytes), ratios in _BATCHED.items():
        for kind, ratio in zip(KINDS, ratios):
            yield pytest.param(op, route, kind, nbytes, ratio,
                               id=f"{op}-{route}-{kind}-{nbytes}",
                               marks=pytest.mark.xfail(
                                   strict=True, raises=AssertionError,
                                   reason=f"{ratio:.3f}x its price"))


@pytest.mark.parametrize("op, route, kind, nbytes, ratio", _batched_grid())
def test_batched_call_adds_its_price(op, route, kind, nbytes, ratio,
                                     monkeypatch):
    local, dtype, k = ROUTES[route], _target(kind, nbytes), 16
    epochs = [_epoch(op, OSCStrategy.BATCHED, False, local, dtype, nbytes,
                     calls, monkeypatch) for calls in (k, k + 1)]
    (before, _), (after, call) = epochs
    marginal = after["epoch"] - before["epoch"] - call
    origin, _ = after["price"]
    if round(marginal / origin, 3) != ratio:
        pytest.fail(f"the ratio moved: {marginal / origin:.4f}x, named {ratio}")
    assert marginal == pytest.approx(origin, rel=REL)
