#!/usr/bin/env python3
"""A sharded key-value service built on one-sided communication.

The paper's case for MPI-2 RMA is that servers should not have to poll
for requests they cannot predict.  This example takes that to its
logical end: the "servers" below run *no request loop at all*.  They
expose a window and go idle; clients read with seqlock-versioned
``win.get``, claim write slots with ``fetch_and_op``, and bump shared
counters with ``accumulate`` — every byte of service traffic is
one-sided SCI remote memory access.

Two parts:

* a hand-rolled session against :class:`repro.svc.KvStore` showing
  the primitive operations (put / get / incr) and the metrics they
  leave behind;
* a seeded zipfian workload pushed through :func:`repro.svc.run_service`,
  whose report is verified against the workload's replay oracle and is
  bit-identical for a given seed.

Run with::

    python examples/kv_service.py
"""

from repro import Cluster
from repro.svc import (
    KvStore,
    ReplicaMap,
    ServiceConfig,
    SvcInstruments,
    WorkloadSpec,
    run_service,
    slot_bytes,
)

N_SERVERS = 2
VALUE_SIZE = 32
SLOTS = 32
COUNTER_SLOTS = 8


def session(store):
    """One client's hand-written session against the store."""
    yield from store.put("motd", b"transparent remote memory access".ljust(
        VALUE_SIZE, b" "))
    value = yield from store.get("motd")
    assert value is not None and bytes(value).startswith(b"transparent")

    missing = yield from store.get("not-there")
    assert missing is None

    for _ in range(5):
        yield from store.incr(0, 2)
    total = yield from store.get_counter(0)
    assert total == 10, total
    return total


def hand_rolled() -> None:
    cluster = Cluster(n_nodes=N_SERVERS + 1)
    # Unreplicated: every shard is a chain of one server rank.
    shards = ReplicaMap([[rank] for rank in range(N_SERVERS)], SLOTS,
                        counter_slots=COUNTER_SLOTS, tables_per_server=1)
    instruments = SvcInstruments.standalone()

    def program(ctx):
        rank = ctx.comm.rank
        is_server = rank < N_SERVERS
        size = SLOTS * slot_bytes(VALUE_SIZE) if is_server else 8
        win = yield from ctx.comm.win_create(size, shared=True)
        if is_server:
            win.local_view()[:] = 0
        yield from win.fence()
        result = None
        if not is_server:
            store = KvStore(win, shards, VALUE_SIZE,
                            instruments=instruments)
            result = yield from session(store)
        yield from win.fence()
        return result

    run = cluster.run(program)
    counters = {name: c.value for name, c in instruments.counters.items()
                if c.value}
    print(f"hand-rolled session: counter total {run.results[-1]}, "
          f"store counters {counters}")


def seeded_service() -> None:
    config = ServiceConfig(
        n_servers=N_SERVERS, n_clients=2, slots_per_shard=SLOTS,
        counter_slots=COUNTER_SLOTS,
        workload=WorkloadSpec(n_keys=24, n_counter_keys=8,
                              ops_per_client=80, value_size=VALUE_SIZE,
                              dist="zipfian", seed=11),
    )
    report = run_service(config)
    assert report["verified"], report["counter_mismatches"]
    lat = report["latency_us"]
    print(f"seeded zipfian service: {report['total_ops']} ops at "
          f"{report['throughput_ops']:.0f} ops/s, "
          f"read p99 {lat['read']['p99']:.1f} µs, "
          f"write p99 {lat['write']['p99']:.1f} µs")
    print(f"hot shards: {report['shards']['hot']}, "
          f"imbalance {report['shards']['imbalance']:.2f}")
    print("all counters match the workload replay oracle")


def main() -> None:
    hand_rolled()
    seeded_service()
    print("OK")


if __name__ == "__main__":
    main()
