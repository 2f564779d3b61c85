"""Tests for the end-to-end scenario matrix (``repro.scenarios``).

Three layers of assurance:

* **determinism** — every cell's JSON report is byte-identical across
  two runs, faults on and off (``run_scenario`` resets the process-wide
  plan cache itself, the ``reset_plan_cache`` pattern from
  ``tests/test_svc.py``);
* **acceptance** — the full 5-scenario × 2-seed matrix verifies its
  application oracles and cross-layer invariants;
* **oracle sharpness** — the invariant checks are unit-tested against
  tampered snapshots, so a scenario "passing" means the checks could
  actually have failed.
"""

import json

import pytest

from repro.scenarios import (
    ScenarioError,
    ScenarioParams,
    canonical,
    check_invariants,
    get_scenario,
    run_scenario,
    scenario_fault_plan,
    scenario_names,
)
from repro.scenarios.base import _REGISTRY, Scenario, register_scenario
from repro.scenarios.cli import main as cli_main

ALL_SCENARIOS = ("colocation", "colocation_rings", "graph", "kv_failover",
                 "qos_contention", "training", "work_stealing")

# Reports are expensive (each is a full cluster simulation): cells are
# computed once per test session and shared read-only.
_CACHE: dict = {}


def cell(name: str, seed: int = 1, faults: bool = False) -> dict:
    key = (name, seed, faults)
    if key not in _CACHE:
        _CACHE[key] = run_scenario(name, seed=seed, faults=faults).report
    return _CACHE[key]


class TestFramework:
    def test_scenario_names_sorted_and_complete(self):
        assert tuple(scenario_names()) == ALL_SCENARIOS

    def test_smoke_headline_gauges_name_their_scenario(self):
        from repro.bench.smoke import SCENARIO_HEADLINES, SMOKE_METRICS

        for gauge_name, scenario in SCENARIO_HEADLINES:
            assert get_scenario(scenario).headline_metric == gauge_name
            assert gauge_name in SMOKE_METRICS

    def test_unknown_scenario_raises(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("nope")

    def test_params_validation(self):
        with pytest.raises(ScenarioError):
            ScenarioParams(ranks=-1)
        with pytest.raises(ScenarioError):
            ScenarioParams(scale=0.0)
        with pytest.raises(ScenarioError):
            ScenarioParams(scale=65.0)

    def test_fault_plans_distinct_per_scenario_and_stable(self):
        seeds = {scenario_fault_plan(n, 1).seed for n in ALL_SCENARIOS}
        assert len(seeds) == len(ALL_SCENARIOS)
        assert (scenario_fault_plan("graph", 1).seed
                == scenario_fault_plan("graph", 1).seed)
        assert (scenario_fault_plan("graph", 1).seed
                != scenario_fault_plan("graph", 2).seed)

    def test_run_scenario_requires_verified_oracle(self):
        @register_scenario
        class _Unverified(Scenario):
            name = "_unverified"
            headline_metric = "x"

            def resolve(self, params):
                return {}

            def run(self, cluster, params, inst):
                return {}  # no "verified" key

        try:
            with pytest.raises(ScenarioError, match="verified"):
                run_scenario("_unverified")
        finally:
            del _REGISTRY["_unverified"]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            register_scenario(type(get_scenario("graph")))


class TestCanonical:
    def test_sorts_nested_mappings(self):
        obj = {"b": {"z": 1, "a": 2}, "a": [{"y": 1, "x": 2}]}
        out = canonical(obj)
        assert list(out) == ["a", "b"]
        assert list(out["b"]) == ["a", "z"]
        assert list(out["a"][0]) == ["x", "y"]

    def test_preserves_list_order_and_sorts_sets(self):
        assert canonical([3, 1, 2]) == [3, 1, 2]
        assert canonical({3, 1, 2}) == [1, 2, 3]
        assert canonical((1, 2)) == [1, 2]

    def test_canonical_dump_equals_sorted_dump(self):
        obj = {"b": {"z": [{"q": 1, "p": 2}], "a": 2}, "a": 1}
        assert (json.dumps(canonical(obj))
                == json.dumps(canonical(obj), sort_keys=True))


class TestInvariantOracles:
    """The cross-layer checks must be able to fail (tampered snapshots)."""

    @staticmethod
    def snapshot(**overrides):
        base = {
            "faults.injected": 0, "faults.transient": 0, "faults.torn": 0,
            "faults.unmap": 0, "faults.stall": 0, "fabric.faults": 0,
            "fabric.bytes_written": 1000, "fabric.bytes_read": 0,
            "fabric.bytes_torn": 0, "scenario.payload_bytes": 800,
            "recovery.retries": 0, "recovery.resumes": 0,
            "recovery.timeouts": 0, "recovery.remaps": 0,
            "recovery.fallbacks": 0, "recovery.aborts": 0,
        }
        base.update(overrides)
        return base

    def test_clean_snapshot_passes(self):
        checks = check_invariants(self.snapshot(), faults_on=False)
        assert all(c["ok"] for c in checks.values())

    def test_fault_ledger_detects_miscount(self):
        snap = self.snapshot(**{"faults.injected": 3, "faults.torn": 1})
        checks = check_invariants(snap, faults_on=True)
        assert not checks["fault_ledger"]["ok"]

    def test_clean_run_detects_stray_faults(self):
        snap = self.snapshot(**{"faults.injected": 1, "faults.torn": 1})
        checks = check_invariants(snap, faults_on=False)
        assert not checks["clean_run_is_clean"]["ok"]
        # The same snapshot is legitimate when faults were requested.
        assert check_invariants(snap, faults_on=True)["clean_run_is_clean"]["ok"]

    def test_payload_conservation_detects_lost_bytes(self):
        snap = self.snapshot(**{"fabric.bytes_written": 700})
        checks = check_invariants(snap, faults_on=False)
        assert not checks["payload_conservation"]["ok"]

    def test_payload_conservation_requires_traffic(self):
        snap = self.snapshot(**{"scenario.payload_bytes": 0})
        checks = check_invariants(snap, faults_on=False)
        assert not checks["payload_conservation"]["ok"]

    def test_torn_prefix_counts_as_delivered(self):
        snap = self.snapshot(**{"fabric.bytes_written": 600,
                                "fabric.bytes_torn": 300})
        checks = check_invariants(snap, faults_on=True)
        assert checks["payload_conservation"]["ok"]

    def test_recovery_must_cover_surfaced_faults(self):
        snap = self.snapshot(**{"fabric.faults": 2, "recovery.retries": 1})
        checks = check_invariants(snap, faults_on=True)
        assert not checks["recovery_covers_faults"]["ok"]


class TestDeterminism:
    @pytest.mark.parametrize("faults", [False, True],
                             ids=["clean", "faulty"])
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_report_bit_identical_across_runs(self, name, faults):
        first = json.dumps(cell(name, seed=1, faults=faults))
        second = json.dumps(run_scenario(name, seed=1, faults=faults).report)
        assert first == second

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_reports_are_key_sorted(self, name):
        report = cell(name)
        assert (json.dumps(report)
                == json.dumps(report, sort_keys=True))


class TestAcceptanceMatrix:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_cell_verifies(self, name, seed):
        report = cell(name, seed=seed)
        assert report["verified"], report["app"]
        assert report["invariants_ok"], report["invariants"]
        headline = report["headline"][get_scenario(name).headline_metric]
        assert headline > 0
        assert report["scenario_counters"]["steps"] > 0
        assert report["scenario_counters"]["payload_bytes"] > 0

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_faulty_cell_verifies_and_injects(self, name):
        report = cell(name, faults=True)
        assert report["verified"], report["app"]
        assert report["invariants_ok"], report["invariants"]
        assert report["faults"]["enabled"]
        assert report["faults"]["injected"] > 0

    def test_seeds_produce_different_timings(self):
        assert (cell("training", seed=1)["elapsed_us"]
                != cell("training", seed=2)["elapsed_us"])

    def test_torn_byte_accounting_surfaces_in_reports(self):
        """Under faults the delivered-byte ledger must still balance —
        including torn-transfer prefixes (fabric.bytes_torn)."""
        for name in ALL_SCENARIOS:
            m = cell(name, faults=True)["metrics"]
            delivered = (m["fabric.bytes_written"] + m["fabric.bytes_read"]
                         + m["fabric.bytes_torn"])
            assert delivered >= m["scenario.payload_bytes"] > 0, name


class TestColocationRings:
    """The switched-fabric co-location variant's own invariants."""

    def test_runs_on_a_two_ringlet_fabric(self):
        topo = cell("colocation_rings")["params"]["topology"]
        assert topo["kind"] == "RingOfRings"
        assert topo["n_ringlets"] == 2 and topo["ringlet_size"] == 4

    def test_tenants_straddle_the_crossbar(self):
        from repro.scenarios.colocation import (N_SERVERS,
                                                ColocationRingsScenario)

        scenario = ColocationRingsScenario()
        params = ScenarioParams()
        topology = scenario.topology(params)
        kv = scenario._kv_ranks(8, 4)
        assert kv == (0, 1, 4, 5)
        # Servers in ringlet 0, clients in ringlet 1: every KV op and
        # the halo mesh's y-faces must cross the switch.
        assert {topology.node_group(r) for r in kv[:N_SERVERS]} == {0}
        assert {topology.node_group(r) for r in kv[N_SERVERS:]} == {1}
        halo = [r for r in range(8) if r not in kv]
        assert {topology.node_group(r) for r in halo} == {0, 1}

    def test_cross_links_saturate_local_links_do_not(self):
        """The cell's whole point: contending cross-switch traffic drives
        the crossbar past capacity while ringlet-local links stay cool."""
        m = cell("colocation_rings")["metrics"]
        assert m["fabric.link_peak_cross"] >= 1.0
        assert m["fabric.link_peak_local"] < 1.0
        assert m["fabric.link_saturated"] >= 1
        assert m["fabric.link_bytes"] > 0

    def test_perfetto_tracks_carry_topology_identity(self):
        """The exported trace names one track per ringlet plus the
        switch, from the topology's own labels."""
        from repro.obs.timeline import chrome_trace

        run = run_scenario("colocation_rings", seed=1)
        doc = chrome_trace(run.tracer)
        names = {ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev.get("ph") == "M" and ev["name"] == "thread_name"
                 and ev["pid"] == 1}
        assert {"ringlet 0", "ringlet 1", "switch"} <= names

    def test_rejects_other_rank_counts(self):
        with pytest.raises(ScenarioError, match="exactly 8 ranks"):
            run_scenario("colocation_rings", ranks=12)

    def test_default_colocation_still_runs_on_a_ring(self):
        """The base cell must be untouched by the topology hook."""
        assert "topology" not in cell("colocation")["params"]
        scenario = get_scenario("colocation")
        assert scenario.topology(ScenarioParams()) is None
        assert scenario._kv_ranks(8, 4) == (0, 1, 2, 3)


class TestCLI:
    def test_list_exits_zero(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_SCENARIOS:
            assert name in out

    def test_no_scenarios_is_an_error(self):
        with pytest.raises(SystemExit):
            cli_main([])

    def test_unknown_scenario_is_an_error(self):
        with pytest.raises(SystemExit):
            cli_main(["nope"])

    def test_json_stdout_purity(self, capsys):
        """With --json -, stdout is exactly one parseable JSON document
        and it is key-sorted; the human summary goes to stderr."""
        rc = cli_main(["training", "--seed", "1", "--json", "-"])
        captured = capsys.readouterr()
        assert rc == 0
        doc = json.loads(captured.out)  # exactly one document
        assert len(doc["cells"]) == 1
        assert doc["cells"][0]["scenario"] == "training"
        assert json.dumps(doc) == json.dumps(doc, sort_keys=True)
        assert "training-s1-clean" in captured.err

    def test_json_file_and_trace_artifacts(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        traces = tmp_path / "traces"
        rc = cli_main(["work_stealing", "--json", str(out),
                       "--trace-dir", str(traces)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["cells"][0]["scenario"] == "work_stealing"
        trace = traces / "work_stealing-s1-clean.trace.json"
        assert trace.exists()
        assert "traceEvents" in json.loads(trace.read_text())
