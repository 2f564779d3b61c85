"""Seeded workload generation for the key-value service driver.

A :class:`WorkloadSpec` plus a client id fully determines that client's
operation stream: every random draw comes from a
``numpy.random.Generator`` seeded with ``SeedSequence([seed, client_id])``
and the generator never consults wall-clock time, so a run is
bit-identical for a given spec — the property the ``repro svc``
determinism guarantee (and its CI leg) rests on.

Key popularity is ``uniform`` or ``zipfian``; a key is drawn by inverse
transform of the CDF over key ranks, the first rank whose cumulative
probability reaches a uniform variate.  Zipf (``p(rank) ~ 1/rank^s``) has
no closed-form inverse, so it keeps the CDF as a table, O(``n_keys``)
memory per client, and ``searchsorted``; the uniform CDF is the float
``(rank + 1) / n_keys``, so :func:`_uniform_key` computes the same index
with no table.  Values are a uniform byte fill derived from (client, op
index): any *mix* of two valid values differs from every valid value,
which is what lets the store tests detect torn reads.

:func:`replay` applies an op stream to plain host dicts — the oracle the
driver checks the simulated cluster's final counter state against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["Op", "WorkloadSpec", "client_ops", "replay"]

DISTRIBUTIONS = ("uniform", "zipfian")


@dataclass(frozen=True)
class Op:
    """One client operation: ``kind`` is ``get`` / ``put`` / ``incr``."""

    kind: str
    key: str            # blob key ("" for incr)
    value: bytes = b""  # put payload
    counter_id: int = 0  # incr target
    delta: int = 0       # incr amount


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that determines a workload, hashable and JSON-friendly."""

    n_keys: int = 64
    n_counter_keys: int = 16
    read_fraction: float = 0.5
    incr_fraction: float = 0.2
    dist: str = "uniform"
    zipf_s: float = 1.1
    ops_per_client: int = 100
    value_size: int = 64
    seed: int = 1
    think_time: float = 0.0  # µs of client pause between ops (closed loop)

    def __post_init__(self):
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(f"dist must be one of {DISTRIBUTIONS}, "
                             f"got {self.dist!r}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction outside [0, 1]: "
                             f"{self.read_fraction}")
        if not 0.0 <= self.incr_fraction <= 1.0 - self.read_fraction:
            raise ValueError(
                f"incr_fraction must fit in [0, 1 - read_fraction]: "
                f"{self.incr_fraction}"
            )
        if self.n_keys < 1 or self.n_counter_keys < 1:
            raise ValueError("need at least one key and one counter key")
        if self.value_size < 1:
            raise ValueError(f"value_size must be >= 1: {self.value_size}")
        if not (math.isfinite(self.zipf_s) and self.zipf_s > 0):
            raise ValueError(f"zipf_s must be finite and > 0: {self.zipf_s}")
        if self.ops_per_client < 0:
            raise ValueError(
                f"ops_per_client must be >= 0: {self.ops_per_client}")
        if not (math.isfinite(self.think_time) and self.think_time >= 0):
            raise ValueError(f"think_time must be finite and >= 0: "
                             f"{self.think_time}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0: {self.seed}")

    def describe(self) -> dict:
        """JSON-ready spec dump (embedded in the driver report)."""
        return asdict(self)


def _key_cdf(spec: WorkloadSpec) -> np.ndarray:
    """Cumulative key-popularity distribution (uniform or Zipf); only the
    Zipf one is ever built outside the tests of :func:`_uniform_key`."""
    ranks = np.arange(1, spec.n_keys + 1, dtype=np.float64)
    if spec.dist == "zipfian":
        weights = 1.0 / ranks**spec.zipf_s
    else:
        weights = np.ones_like(ranks)
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _uniform_key(u: float, n_keys: int) -> int:
    """``searchsorted(_key_cdf(spec), u, "left")`` for a uniform spec: the
    first ``k`` whose table entry, the float ``(k + 1) / n_keys``, is
    ``>= u``.  ``int(u * n_keys)`` is that index, or the one above it when
    the product rounded up to a whole number or ``u`` is a table entry."""
    k = min(int(u * n_keys), n_keys - 1)
    return k - 1 if k and k / n_keys >= u else k


def _fill_value(client_id: int, op_index: int, size: int) -> bytes:
    """A uniform byte fill unique-ish to (client, op): torn-read tripwire."""
    byte = (client_id * 131 + op_index * 7 + 1) % 251
    return bytes([byte]) * size


def client_ops(spec: WorkloadSpec, client_id: int,
               max_counter_keys: int | None = None) -> list[Op]:
    """The deterministic op stream of one client."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, client_id]))
    cdf = _key_cdf(spec) if spec.dist == "zipfian" else None
    n_counters = spec.n_counter_keys
    if max_counter_keys is not None:
        n_counters = min(n_counters, max_counter_keys)
    ops: list[Op] = []
    for i in range(spec.ops_per_client):
        draw = rng.random()
        u = rng.random()
        key_idx = (_uniform_key(u, spec.n_keys) if cdf is None
                   else int(np.searchsorted(cdf, u, side="left")))
        key = f"key-{key_idx}"
        if draw < spec.read_fraction:
            ops.append(Op("get", key))
        elif draw < spec.read_fraction + spec.incr_fraction:
            counter_id = key_idx % n_counters
            delta = int(rng.integers(1, 8))
            ops.append(Op("incr", "", counter_id=counter_id, delta=delta))
        else:
            ops.append(Op("put", key,
                          value=_fill_value(client_id, i, spec.value_size)))
    return ops


def replay(streams: list[list[Op]]) -> dict[int, int]:
    """Host-side oracle: final counter values implied by ``streams``.

    Counter increments commute, so their final values are exact whatever
    interleaving the cluster ran — this is what the driver's verification
    pass compares the simulated window contents against.  (Blob puts
    race by design; last-writer-wins order is interleaving-dependent, so
    blobs are verified structurally by the store tests, not here.)
    """
    counters: dict[int, int] = {}
    for stream in streams:
        for op in stream:
            if op.kind == "incr":
                counters[op.counter_id] = (
                    counters.get(op.counter_id, 0) + op.delta
                )
    return counters
