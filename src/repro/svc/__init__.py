"""repro.svc: an RMA-backed sharded key-value service on the simulated stack.

The paper's closing argument is that transparent remote memory access
turns one-sided communication into a first-class programming model.
This package is that argument exercised end to end: a key-value service
whose servers are *completely passive* — every read, write, and counter
increment is a client-side MPI-2 one-sided operation (seqlock-validated
gets, ``fetch_and_op`` claim/publish writes, handler-serialized
accumulates), with passive-target reader–writer locks as the contention
fallback.

Modules:

* :mod:`repro.svc.shard` — deterministic key -> shard -> replica-chain
  placement (:class:`ReplicaMap`) plus hot-shard accounting;
* :mod:`repro.svc.store` — the :class:`KvStore` slot protocol over a
  chain of >= 1 placements, and the ``svc.*`` / ``repl.*`` instruments;
* :mod:`repro.svc.workload` — seeded uniform/zipfian op streams and the
  host-side replay oracle;
* :mod:`repro.svc.load` — the closed-loop and open-loop clients;
* :mod:`repro.svc.failover` — deterministic rank loss and the
  exactly-once :class:`ApplyLedger` oracle;
* :mod:`repro.svc.rebalance` — live shard migration / key-range
  splitting;
* :mod:`repro.svc.driver` — the one driver body (cluster program, QoS
  reservation, verification, JSON report) behind :func:`run_service`
  and :func:`run_replicated_service`;
* :mod:`repro.svc.repl` — the chain entry point under its historical
  import path (``docs/REPLICATION.md``).

``repro svc`` (:mod:`repro.cluster.cli`) runs :func:`run_service` from
the command line.  See ``docs/SERVICE.md`` for the slot layout and
consistency story.
"""

from .driver import (ReplicatedServiceConfig, ServiceConfig, execute_service,
                     run_replicated_service, run_service)
from .failover import ApplyLedger, FailoverPlan
from .load import OpenLoopSpec
from .rebalance import Rebalancer
from .shard import (Placement, ReplicaMap, hash_key, hot_shard_indices,
                    mix64)
from .store import KvStore, ReplInstruments, SvcInstruments, slot_bytes
from .workload import Op, WorkloadSpec, client_ops, replay

__all__ = [
    "ApplyLedger",
    "FailoverPlan",
    "KvStore",
    "Op",
    "OpenLoopSpec",
    "Placement",
    "Rebalancer",
    "ReplInstruments",
    "ReplicaMap",
    "ReplicatedServiceConfig",
    "ServiceConfig",
    "SvcInstruments",
    "WorkloadSpec",
    "client_ops",
    "execute_service",
    "hash_key",
    "hot_shard_indices",
    "mix64",
    "replay",
    "run_replicated_service",
    "run_service",
    "slot_bytes",
]
