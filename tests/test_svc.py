"""Tests for the RMA key-value service (repro.svc): workload and driver.

Covers the seeded workload generator (the closed-form uniform key draw
against the popularity table it stands for, golden stream digests),
boundary validation of the service shape, the CLI's exit codes, and the
driver's headline guarantee: the full JSON report is bit-identical
across repeated runs for a given (workload, fault plan) pair — uniform
and zipfian, faults on and off.
The placement map and the slot protocol under concurrent clients live
in ``tests/test_kv_store.py`` (one module for every chain depth).
"""

import functools
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware.sci.faults import FaultPlan
from repro.mpi.flatten import reset_plan_cache
from repro.svc import (
    Op,
    ServiceConfig,
    WorkloadSpec,
    client_ops,
    replay,
    run_service,
)
from repro.svc.workload import _key_cdf, _uniform_key


class TestWorkload:
    def test_streams_are_deterministic(self):
        spec = WorkloadSpec(seed=7, ops_per_client=50)
        assert client_ops(spec, 0) == client_ops(spec, 0)
        assert client_ops(spec, 0) != client_ops(spec, 1)

    def test_op_mix_respects_fractions(self):
        spec = WorkloadSpec(read_fraction=1.0, incr_fraction=0.0,
                            ops_per_client=40)
        assert all(op.kind == "get" for op in client_ops(spec, 0))
        spec = WorkloadSpec(read_fraction=0.0, incr_fraction=1.0,
                            ops_per_client=40)
        assert all(op.kind == "incr" for op in client_ops(spec, 0))

    def test_zipfian_skews_toward_head_keys(self):
        base = dict(ops_per_client=2000, read_fraction=1.0,
                    incr_fraction=0.0, n_keys=64, seed=3)
        uni = client_ops(WorkloadSpec(dist="uniform", **base), 0)
        zipf = client_ops(WorkloadSpec(dist="zipfian", zipf_s=1.3, **base), 0)

        def head_share(ops):
            head = sum(op.key == "key-0" for op in ops)
            return head / len(ops)

        assert head_share(zipf) > 4 * head_share(uni)

    def test_replay_oracle_sums_increments(self):
        streams = [
            [Op("incr", "", counter_id=0, delta=2),
             Op("put", "k", value=b"x")],
            [Op("incr", "", counter_id=0, delta=3),
             Op("incr", "", counter_id=1, delta=1)],
        ]
        assert replay(streams) == {0: 5, 1: 1}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(dist="pareto")
        with pytest.raises(ValueError):
            WorkloadSpec(read_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(read_fraction=0.9, incr_fraction=0.2)
        with pytest.raises(ValueError):
            WorkloadSpec(n_keys=0)

    @pytest.mark.parametrize("field, bad", [
        ("zipf_s", [math.nan, math.inf, -math.inf, 0.0, -1.1]),
        ("ops_per_client", [-1]),
        ("think_time", [-0.5, math.nan, math.inf]),
    ], ids=["zipf_s", "ops_per_client", "think_time"])
    def test_unusable_numbers_are_rejected_by_name(self, field, bad):
        """Whatever ``dist`` is: the spec is embedded in the JSON report,
        which cannot carry ``NaN`` or ``Infinity``."""
        for value in bad:
            with pytest.raises(ValueError, match=field) as exc:
                WorkloadSpec(**{field: value})
            assert str(value) in str(exc.value)
        assert client_ops(WorkloadSpec(ops_per_client=0), 0) == []


@functools.lru_cache(maxsize=None)
def _uniform_table(n_keys):
    return _key_cdf(WorkloadSpec(n_keys=n_keys))


class TestKeyDraws:
    """The uniform draw is the popularity table's answer without the
    table; the table itself (``_key_cdf``) is its definition."""

    @settings(max_examples=400, deadline=None)
    @given(
        n_keys=st.one_of(st.integers(1, 5000),
                         st.sampled_from([999_983, 10**6])),
        entry=st.floats(0.0, 1.0),  # which table entry to draw at
        neighbour=st.sampled_from([-1, 0, 1]),
        u=st.floats(0.0, 1.0, exclude_max=True),
    )
    @example(n_keys=1, entry=0.0, neighbour=0, u=0.0)
    @example(n_keys=10**6, entry=1.0, neighbour=-1, u=1.0 - 2.0**-53)
    @example(n_keys=999_983, entry=0.5, neighbour=0, u=5e-324)
    def test_closed_form_equals_the_table(self, n_keys, entry, neighbour, u):
        # Any u in [0, 1), and the float k/n a table entry holds with the
        # float on either side of it: where an off-by-one would live.
        at = int(entry * n_keys) / n_keys
        edge = math.nextafter(at, at + neighbour) if neighbour else at
        cdf = _uniform_table(n_keys)
        for variate in (u, edge):
            if 0.0 <= variate < 1.0:
                assert _uniform_key(variate, n_keys) == int(
                    np.searchsorted(cdf, variate, side="left"))

    #: sha256(repr(client_ops(spec, client))) at the commit before the
    #: uniform table was replaced: op streams are byte-identical.
    KV_OVERLOAD = dict(n_keys=1_000_000, read_fraction=0.5, incr_fraction=0.0,
                       ops_per_client=300, value_size=32, seed=1)
    GOLDEN = [
        (KV_OVERLOAD, 0, "e519321a935381e86c45dc28838b255b"
                         "a6d778abf8232f39859ab5be79185a9a"),
        (KV_OVERLOAD, 1, "e4f8f2c0fddca7c90377ae5caecab7ab"
                         "7c7986c275bc26c46a998b5276facdbb"),
        (KV_OVERLOAD, 2, "60d0978641a205fbfdbe1bde2592e76a"
                         "428dedd0be5b346f9502d3c44c27e894"),
        (KV_OVERLOAD, 3, "d85a0d108bfa57914f4848adc2dcd24a"
                         "7d8be85fbe90ee9641bccaa528d47a85"),
        ({}, 0, "ca6bf573bfa8af4e3bbf48a730b9df9b"
                "18c6372bd080c14090526c1849ec6cf2"),
        (dict(n_keys=5000, dist="zipfian", zipf_s=1.2, ops_per_client=400,
              seed=11), 2, "b324c17a96167339a59a2cdd55976abe"
                           "e2cd668bfaa8547ac95450efe5fe18f4"),
    ]

    @pytest.mark.parametrize("fields, client, digest", GOLDEN, ids=[
        "kv_overload-0", "kv_overload-1", "kv_overload-2", "kv_overload-3",
        "default", "zipfian"])
    def test_streams_are_byte_identical_to_the_golden(self, fields, client,
                                                      digest):
        stream = repr(client_ops(WorkloadSpec(**fields), client))
        assert hashlib.sha256(stream.encode()).hexdigest() == digest

    def test_uniform_draws_need_no_memory_per_key(self):
        """A popularity table over these keys would be 80 MB, built with
        three temporaries of that size; ten ops are a few KiB."""
        spec = WorkloadSpec(n_keys=10**7, ops_per_client=10)
        tracemalloc.start()
        try:
            ops = client_ops(spec, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ops) == 10
        assert peak < 1 << 20


class TestDriver:
    def small_config(self, dist="uniform", seed=1):
        return ServiceConfig(
            n_servers=2, n_clients=2, slots_per_shard=16, counter_slots=4,
            workload=WorkloadSpec(n_keys=16, n_counter_keys=8,
                                  ops_per_client=30, value_size=32,
                                  dist=dist, seed=seed),
        )

    def test_report_shape_and_verification(self):
        report = run_service(self.small_config())
        assert report["verified"]
        assert report["counter_mismatches"] == []
        assert report["total_ops"] == 60
        assert report["throughput_ops"] > 0
        lat = report["latency_us"]
        ops = sum(lat[kind]["count"] for kind in ("read", "write", "incr"))
        assert ops == 60
        for kind in ("read", "write", "incr"):
            assert lat[kind]["p50"] <= lat[kind]["p95"] <= lat[kind]["p99"]
        # Percentiles come from the registry snapshot, not a side channel.
        assert (report["metrics"]["svc.read_latency_us.p99"]
                == lat["read"]["p99"])

    @pytest.mark.parametrize("dist", ["uniform", "zipfian"])
    @pytest.mark.parametrize("faulty", [False, True],
                             ids=["clean", "faults"])
    def test_report_bit_identical_across_runs(self, dist, faulty):
        """The acceptance bar: same seed -> byte-equal JSON, per dist,
        faults on and off."""

        def one_run():
            reset_plan_cache()  # process-global; isolate the two runs
            faults = (FaultPlan(seed=5, transient_rate=0.05, torn_rate=0.05,
                                stall_rate=0.02, stall_time=300.0,
                                unmap_after=150)
                      if faulty else None)
            report = run_service(self.small_config(dist=dist), faults=faults)
            return json.dumps(report, sort_keys=True)

        first, second = one_run(), one_run()
        assert first == second
        assert json.loads(first)["verified"]

    def test_different_seeds_differ(self):
        a = run_service(self.small_config(seed=1))
        b = run_service(self.small_config(seed=2))
        assert (json.dumps(a, sort_keys=True)
                != json.dumps(b, sort_keys=True))

    def test_faults_degrade_cleanly(self):
        """Under an unmapping fault plan the service keeps verifying and
        records the direct->emulated degradation."""
        plan = FaultPlan(seed=3, transient_rate=0.1, torn_rate=0.05,
                         stall_rate=0.02, stall_time=300.0, unmap_after=60)
        report = run_service(self.small_config(), faults=plan)
        assert report["verified"]
        assert report["faults"]["injected"] > 0
        assert report["faults"]["fallbacks"] > 0


@pytest.mark.faults
@pytest.mark.parametrize("seed", [1, 2, 3], ids=["seed1", "seed2", "seed3"])
def test_svc_storm_under_faults_stays_exact(seed):
    """Fault-matrix leg: the full service keeps its replay-oracle
    exactness per seed with the fault injector running hot."""
    report = run_service(
        ServiceConfig(n_servers=2, n_clients=2, slots_per_shard=16,
                      counter_slots=4,
                      workload=WorkloadSpec(n_keys=16, n_counter_keys=8,
                                            ops_per_client=25, seed=seed,
                                            value_size=32)),
        faults=FaultPlan(seed=seed, transient_rate=0.1, torn_rate=0.05,
                         stall_rate=0.03, stall_time=300.0),
    )
    assert report["verified"], report["counter_mismatches"]
    assert report["faults"]["injected"] > 0


class TestConfigValidation:
    """The whole shape is rejected at construction — before a cluster
    exists, not deep inside the placement map mid-run."""

    @pytest.mark.parametrize("bad", [
        dict(n_servers=0),
        dict(n_clients=0),
        dict(slots_per_shard=0, counter_slots=0),
        dict(slots_per_shard=64, counter_slots=64),
        dict(counter_slots=-1),
        dict(hot_factor=1.0),
        dict(qos_reserve=1.0),
        # Increments need somewhere to land.
        dict(counter_slots=0, workload=WorkloadSpec(incr_fraction=0.2)),
    ])
    def test_bad_shapes_raise(self, bad):
        with pytest.raises(ValueError):
            ServiceConfig(**bad)

    def test_blob_only_service_needs_no_counter_slots(self):
        config = ServiceConfig(
            counter_slots=0,
            workload=WorkloadSpec(incr_fraction=0.0, ops_per_client=10))
        report = run_service(config)
        assert report["verified"] and report["counters_checked"] == 0


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["--counter-slots", "64", "--slots", "64"],
        ["--servers", "0"],
        ["--clients", "0"],
        ["--value-size", "0"],
        ["--read-frac", "0.9", "--incr-frac", "0.2"],
        ["--counter-slots", "0"],  # default --incr-frac 0.2 has no home
        # nan would put every draw on key-0 and "zipf_s": NaN in the JSON.
        ["--dist", "zipfian", "--zipf-s", "nan", "--ops", "5", "--json", "-"],
        ["--zipf-s", "0"],
        ["--ops", "-1"],
        ["--think-time", "-1"],
    ])
    def test_invalid_shape_is_a_usage_error(self, argv, capsys):
        """Exit code 2 and one line on stderr — code 1 is reserved for
        "verification failed"."""
        from repro.svc.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines()[-1].startswith("repro-svc: error: ")

    def test_failed_verification_exits_one(self, monkeypatch, capsys):
        from repro.svc import cli

        real = cli.run_service

        def corrupted(config, faults=None):
            report = real(config, faults=faults)
            return {**report, "verified": False}

        monkeypatch.setattr(cli, "run_service", corrupted)
        assert cli.main(["--ops", "5"]) == 1
        assert "COUNTER MISMATCH" in capsys.readouterr().out

    def test_json_stdout_is_pure(self, capsys):
        from repro.svc.cli import main

        rc = main(["--servers", "1", "--clients", "1", "--ops", "20",
                   "--keys", "8", "--slots", "16", "--counter-slots", "4",
                   "--counter-keys", "4", "--json", "-"])
        assert rc == 0
        out, err = capsys.readouterr()
        report = json.loads(out)  # stdout is exactly one JSON document
        assert report["verified"]
        assert report["throughput_ops"] > 0
        assert "throughput" in err  # the human summary moved to stderr

    def test_json_file_output(self, tmp_path, capsys):
        from repro.svc.cli import main

        out_path = tmp_path / "svc.json"
        rc = main(["--servers", "1", "--clients", "1", "--ops", "15",
                   "--keys", "8", "--slots", "16", "--counter-slots", "4",
                   "--counter-keys", "4", "--json", str(out_path)])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["verified"]
        assert "throughput" in capsys.readouterr().out

    def test_bad_dist_rejected(self):
        from repro.svc.cli import main

        with pytest.raises(SystemExit):
            main(["--dist", "pareto"])
