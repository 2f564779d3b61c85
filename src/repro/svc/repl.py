"""The chain service's entry point, under its historical import path.

Replication is not a second implementation: the chain service is the
one store (:mod:`repro.svc.store`), the one placement map
(:mod:`repro.svc.shard`) and the one driver (:mod:`repro.svc.driver`)
run with chains deeper than 1 and tagged writes.  What chains *add* —
failover and its exactly-once oracle (:mod:`repro.svc.failover`), live
shard migration (:mod:`repro.svc.rebalance`), open-loop load
(:mod:`repro.svc.load`) — is exported from :mod:`repro.svc`; this module
keeps ``from repro.svc.repl import ...`` working for the chain entry
point and its config arguments, which the benchmark harnesses import
from here.  See ``docs/REPLICATION.md``.
"""

from .driver import ReplicatedServiceConfig, run_replicated_service
from .failover import FailoverPlan
from .load import OpenLoopSpec

__all__ = ["FailoverPlan", "OpenLoopSpec", "ReplicatedServiceConfig",
           "run_replicated_service"]
