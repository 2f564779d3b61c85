"""Scenario 4: multi-tenant co-location — a KV service and a halo-exchange
job sharing one fabric.

The paper's end-to-end claim is about *mixed* traffic: transparent RMA
must hold up when a latency-sensitive one-sided service and a
bandwidth-hungry datatype workload contend for the same links.  This
scenario splits the world communicator into two tenants:

* **kv** — the first ``2 + n_clients`` ranks run the svc sharded KV
  store (seqlock blobs + exact RMA counters) exactly as
  ``repro.svc.driver`` does, verified against the host
  :func:`~repro.svc.workload.replay` oracle;
* **halo** — the last four ranks run a 3-D Jacobi sweep over a
  ``(1, 2, 2)`` process mesh using :class:`~repro.apps.halo.HaloExchanger`
  Subarray faces, verified bit-exactly against a host stencil on the
  global grid.

Both tenants' windows are created on *split* communicators (window ids
are context-scoped), and their traffic interleaves on the shared SCI
fabric — the cross-layer payload invariants therefore account for both
tenants at once.

The halo half is also exported standalone (:func:`run_halo_standalone`)
so ``examples/ocean_halo.py`` can compare transfer techniques on the
same verified kernel.

Headline metric: ``scenario_coloc_p99_us`` — the worst p99 latency over
the service's read/write/incr ops while co-located, lower is better.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..apps.halo import HaloExchanger
from ..cluster import Cluster
from ..hardware.sci.topology import RingOfRings, Topology
from ..svc import (KvStore, ReplicaMap, SvcInstruments, WorkloadSpec,
                   client_ops, replay, slot_bytes)
from ..svc.load import closed_loop_client
from .base import (Scenario, ScenarioError, ScenarioInstruments,
                   ScenarioParams, register_scenario)

__all__ = ["ColocationRingsScenario", "ColocationScenario", "HaloConfig",
           "halo_program", "run_halo_standalone"]

#: Ranks the halo tenant always occupies (a (1, 2, 2) mesh).
HALO_RANKS = 4
N_SERVERS = 2

#: Ringlet size of the switched co-location variant (both tenants get
#: half of each ringlet, so both straddle the crossbar).
RINGLET_SIZE = 4

#: The variant's crossbar ports run at half the ringlet link bandwidth —
#: the (realistic) regime where contending cross-switch traffic
#: saturates the switch while ringlet-local links stay below capacity.
SWITCH_CAPACITY = 0.5

#: Simulated µs of stencil compute per halo sweep.
HALO_COMPUTE_US = 50.0


@dataclass(frozen=True)
class HaloConfig:
    """The halo tenant's grid: a 3-D Jacobi sweep over ``mesh``."""

    mesh: tuple[int, int, int] = (1, 2, 2)
    interior: tuple[int, int, int] = (4, 12, 12)
    steps: int = 2

    @property
    def n_ranks(self) -> int:
        nz, ny, nx = self.mesh
        return nz * ny * nx

    def describe(self) -> dict:
        return {
            "compute_us": HALO_COMPUTE_US,
            "interior": list(self.interior),
            "mesh": list(self.mesh),
            "steps": self.steps,
        }


def _host_halo(config: HaloConfig) -> list[np.ndarray]:
    """Oracle: the Jacobi sweeps on the assembled global grid.

    The update expression is written identically to the simulated one,
    so every element goes through the same float operations in the same
    order — the comparison is bit-exact, not approximate.
    """
    from ..apps.halo import CartDecomposition

    cart = CartDecomposition(config.mesh)
    gshape = tuple(i * m for i, m in zip(config.interior, config.mesh))
    full = np.zeros(tuple(g + 2 for g in gshape))

    def block(rank: int):
        coords = cart.coords(rank)
        return tuple(
            slice(1 + c * i, 1 + (c + 1) * i)
            for c, i in zip(coords, config.interior)
        )

    for rank in range(config.n_ranks):
        full[block(rank)] = float(rank + 1)
    for _ in range(config.steps):
        full[1:-1, 1:-1, 1:-1] = 0.25 * (
            full[1:-1, :-2, 1:-1] + full[1:-1, 2:, 1:-1]
            + full[1:-1, 1:-1, :-2] + full[1:-1, 1:-1, 2:]
        )
    return [full[block(rank)].copy() for rank in range(config.n_ranks)]


def halo_program(comm, ctx, config: HaloConfig,
                 inst: Optional[ScenarioInstruments] = None):
    """DES generator: the halo tenant on ``comm`` (must span the mesh).

    Returns the rank's final interior block for oracle comparison.
    When ``inst`` is given, sweeps are marked as ``scenario.step`` spans
    and face payloads are accounted.
    """
    ex = HaloExchanger(comm, config.mesh, config.interior)
    buf = ctx.alloc(ex.nbytes)
    grid = ex.view(buf)
    grid[:] = 0.0
    ex.interior_view(buf)[:] = float(comm.rank + 1)
    face_bytes = []
    for dim in range(3):
        sub = list(config.interior)
        sub[dim] = ex.halo
        nbytes = 8 * int(np.prod(sub))
        for direction in (-1, +1):
            if ex.cart.neighbour(comm.rank, dim, direction) is not None:
                face_bytes.append(nbytes)

    t0 = ctx.now
    for sweep in range(config.steps):
        span = (inst.step(ctx, sweep, record=comm.rank == 0)
                if inst is not None else nullcontext())
        with span:
            yield from ex.exchange(buf)
            if inst is not None:
                for nbytes in face_bytes:
                    inst.payload(nbytes)
                inst.ops(len(face_bytes))
            grid[1:-1, 1:-1, 1:-1] = 0.25 * (
                grid[1:-1, :-2, 1:-1] + grid[1:-1, 2:, 1:-1]
                + grid[1:-1, 1:-1, :-2] + grid[1:-1, 1:-1, 2:]
            )
            yield ctx.cluster.engine.timeout(HALO_COMPUTE_US)
    return {
        "halo_elapsed_us": ctx.now - t0,
        "block": ex.interior_view(buf).copy(),
    }


def run_halo_standalone(config: HaloConfig, protocol=None) -> dict:
    """Run the halo kernel alone on its own cluster (the example's path).

    Returns worst per-rank elapsed time plus the oracle verdict, so the
    example and the scenario share one verified kernel.
    """
    kwargs = {"n_nodes": config.n_ranks}
    if protocol is not None:
        kwargs["protocol"] = protocol
    cluster = Cluster(**kwargs)

    def program(ctx):
        result = yield from halo_program(ctx.comm, ctx, config)
        return {"rank": ctx.comm.rank, **result}

    run = cluster.run(program)
    expected = _host_halo(config)
    exact = all(np.array_equal(r["block"], expected[r["rank"]])
                for r in run.results)
    return {
        "elapsed_us": max(r["halo_elapsed_us"] for r in run.results),
        "exact": exact,
        "steps": config.steps,
    }


@register_scenario
class ColocationScenario(Scenario):
    name = "colocation"
    description = ("multi-tenant co-location: sharded KV service and a "
                   "halo-exchange job on one fabric via split comms")
    default_ranks = 8
    default_steps = 2  # halo sweeps
    headline_metric = "scenario_coloc_p99_us"

    def _shape(self, params: ScenarioParams):
        n_ranks = self.n_ranks(params)
        n_clients = n_ranks - N_SERVERS - HALO_RANKS
        if n_clients < 1:
            raise ScenarioError(
                f"colocation needs >= {N_SERVERS + HALO_RANKS + 1} ranks "
                f"({N_SERVERS} servers + {HALO_RANKS} halo + clients), "
                f"got {n_ranks}"
            )
        return n_ranks, n_clients

    def _workload(self, params: ScenarioParams) -> WorkloadSpec:
        return WorkloadSpec(
            n_keys=32, n_counter_keys=8,
            ops_per_client=max(1, int(30 * params.scale)),
            value_size=64, seed=params.seed,
        )

    def _halo_config(self, params: ScenarioParams) -> HaloConfig:
        return HaloConfig(steps=self.n_steps(params))

    def _kv_ranks(self, n_ranks: int, n_kv: int) -> tuple[int, ...]:
        """World ranks of the KV tenant, ascending.

        The split communicator orders by world rank, so the first
        ``N_SERVERS`` ranks returned here become the shard servers.
        Topology-aware subclasses override this to pin tenant halves to
        specific ringlets."""
        return tuple(range(n_kv))

    def resolve(self, params: ScenarioParams) -> dict:
        n_ranks, n_clients = self._shape(params)
        return {
            "halo": self._halo_config(params).describe(),
            "n_clients": n_clients,
            "n_servers": N_SERVERS,
            "resolved_ranks": n_ranks,
            "workload": self._workload(params).describe(),
        }

    def run(self, cluster, params: ScenarioParams,
            inst: ScenarioInstruments) -> dict:
        n_ranks, n_clients = self._shape(params)
        n_kv = N_SERVERS + n_clients
        spec = self._workload(params)
        config = self._halo_config(params)

        shards = ReplicaMap([[rank] for rank in range(N_SERVERS)],
                            slots_per_shard=64, counter_slots=16,
                            tables_per_server=1)
        svc_inst = SvcInstruments.registered(cluster.metrics)
        streams = [client_ops(spec, cid,
                              max_counter_keys=shards.max_counter_keys)
                   for cid in range(n_clients)]
        expected = replay(streams)
        shard_bytes = 64 * slot_bytes(spec.value_size)
        mismatches: list[dict] = []

        def account(op):
            # Application payload by op kind (a counter delta is one
            # 8-byte word) — not the store's wire-level on_payload.
            inst.payload(8 if op.kind == "incr" else spec.value_size)
            inst.ops()

        def kv_program(sub, ctx):
            srank = sub.rank
            is_server = srank < N_SERVERS
            win = yield from sub.win_create(
                shard_bytes if is_server else 8, shared=True)
            if is_server:
                win.local_view()[:] = 0
            yield from win.fence()

            ops_done = 0
            if not is_server:
                store = KvStore(win, shards, spec.value_size,
                                instruments=svc_inst)
                ops_done, _ = yield from closed_loop_client(
                    store, streams[srank - N_SERVERS], on_done=account)
            yield from win.fence()

            if srank == N_SERVERS:  # first client checks the oracle
                mismatches.extend(
                    (yield from store.check_counters(expected)))
            yield from win.fence()
            return {"kv_ops": ops_done}

        kv_ranks = frozenset(self._kv_ranks(n_ranks, n_kv))
        halo_index = {rank: i for i, rank in enumerate(
            r for r in range(n_ranks) if r not in kv_ranks)}

        def program(ctx):
            rank = ctx.comm.rank
            color = 0 if rank in kv_ranks else 1
            sub = yield from ctx.comm.split(color, key=rank)
            if color == 0:
                result = yield from kv_program(sub, ctx)
            else:
                result = yield from halo_program(sub, ctx, config, inst)
            return {"rank": rank,
                    "tenant": "kv" if color == 0 else "halo", **result}

        run = cluster.run(program)

        halo_blocks = {halo_index[r["rank"]]: r["block"]
                       for r in run.results if r["tenant"] == "halo"}
        expected_blocks = _host_halo(config)
        halo_exact = all(
            np.array_equal(halo_blocks[r], expected_blocks[r])
            for r in range(config.n_ranks)
        )
        kv_ops = sum(r.get("kv_ops", 0) for r in run.results)
        kv_ok = not mismatches
        return {
            "counter_mismatches": mismatches,
            "counters_checked": len(expected),
            "halo_exact": halo_exact,
            "halo_sweeps": config.steps,
            "kv_ops": kv_ops,
            "kv_verified": kv_ok,
            "verified": kv_ok and halo_exact,
        }

    def headline_value(self, app: dict, snapshot: dict,
                       elapsed_us: float) -> float:
        return max(snapshot["svc.read_latency_us.p99"],
                   snapshot["svc.write_latency_us.p99"],
                   snapshot["svc.incr_latency_us.p99"])


@register_scenario
class ColocationRingsScenario(ColocationScenario):
    """The co-location cell on a switched two-ringlet fabric.

    Same tenants, same workloads, but the cluster runs on a
    :class:`~repro.hardware.sci.topology.RingOfRings` of two 4-node
    ringlets, and the tenant halves are pinned so *both* tenants straddle
    the crossbar: KV servers sit in ringlet 0 and KV clients in
    ringlet 1 (every service op crosses the switch), and the halo mesh
    splits its ``(1, 2, 2)`` y-dimension across the ringlets (its
    y-faces cross, its x-faces stay ringlet-local).  The cell is the
    regression net for per-link accounting: cross-switch links run far
    hotter than ringlet-local ones, which the ``fabric.link_*`` metrics
    and the per-ringlet Perfetto tracks must show.
    """

    name = "colocation_rings"
    description = ("co-location on a switched two-ringlet fabric: both "
                   "tenants straddle the crossbar and contend on the "
                   "cross-switch links")
    headline_metric = "scenario_coloc_rings_p99_us"

    def _shape(self, params: ScenarioParams):
        n_ranks, n_clients = super()._shape(params)
        if n_ranks != 2 * RINGLET_SIZE:
            raise ScenarioError(
                f"colocation_rings runs on exactly {2 * RINGLET_SIZE} ranks "
                f"(two {RINGLET_SIZE}-node ringlets), got {n_ranks}"
            )
        return n_ranks, n_clients

    def topology(self, params: ScenarioParams) -> Topology:
        n_ranks, _ = self._shape(params)
        return RingOfRings(n_ranks // RINGLET_SIZE, RINGLET_SIZE,
                           switch_capacity=SWITCH_CAPACITY)

    def _kv_ranks(self, n_ranks: int, n_kv: int) -> tuple[int, ...]:
        # Servers head ringlet 0, clients head ringlet 1 — the KV
        # tenant's every op crosses the switch.  The ringlet tails
        # (2, 3, 6, 7) fall to the halo mesh, splitting it y-wise.
        return tuple(range(N_SERVERS)) + tuple(
            range(RINGLET_SIZE, RINGLET_SIZE + n_kv - N_SERVERS))

    def resolve(self, params: ScenarioParams) -> dict:
        return {**super().resolve(params),
                "topology": self.topology(params).describe()}
