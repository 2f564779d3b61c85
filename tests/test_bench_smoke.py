"""Tests for the CI smoke benchmark and its comparison tool."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench_compare():
    return load_tool("bench_compare")


@pytest.fixture(scope="module")
def metrics():
    from repro.bench.smoke import run_smoke

    return run_smoke()


class TestRunSmoke:
    def test_emits_expected_metrics(self, metrics):
        from repro.bench.smoke import SMOKE_METRICS

        assert tuple(metrics) == SMOKE_METRICS
        for name, value in metrics.items():
            assert value > 0, name
            assert value == pytest.approx(value), name  # finite

    def test_fault_recovery_costs_time(self, metrics):
        assert metrics["fault_recovery_us"] > metrics["fault_clean_us"]

    def test_direct_pack_beats_generic(self, metrics):
        assert (metrics["noncontig_direct_1kib_mibs"]
                > metrics["noncontig_generic_1kib_mibs"])

    def test_matches_committed_baseline(self, metrics):
        """Simulated gauges are deterministic, so the committed baseline
        is an *exact* contract: a refactor that moves any of them by one
        ulp has changed behaviour and must say so by regenerating the
        file.  (The 20% tolerance of ``tools/bench_compare.py`` only
        keeps CI's artifact comparison readable.)"""
        baseline_path = REPO / "benchmarks" / "BENCH_baseline.json"
        baseline = json.loads(baseline_path.read_text())
        assert len(baseline) == 22
        moved = {name: (baseline[name], metrics.get(name))
                 for name in baseline if metrics.get(name) != baseline[name]}
        assert not moved, f"(baseline, now) differ: {moved}"


class TestReferenceEngineSmoke:
    def test_event_stepped_reference_matches_baseline(self):
        """The whole smoke suite on the event-stepped reference (no
        stream window, no cost table) lands on the committed baseline
        exactly, all 22 gauges — with ``test_matches_committed_baseline``
        above, the two engines agree on every simulated value."""
        from repro.bench.smoke import run_smoke
        from repro.mpi.transport import fastpath_disabled

        with fastpath_disabled():
            reference = run_smoke()
        baseline = json.loads(
            (REPO / "benchmarks" / "BENCH_baseline.json").read_text())
        assert len(baseline) == 22
        assert reference == baseline


class TestBenchCompare:
    def test_direction_table(self):
        bc = load_bench_compare()
        assert bc.direction("pingpong_8b_us") == "lower"
        assert bc.direction("hier_allreduce_speedup_64n_x") == "higher"
        assert bc.direction("kv_failover_availability") == "higher"
        assert bc.direction("something_else") is None

    def test_classify_directions(self):
        bc = load_bench_compare()
        assert bc.classify("x_us", 100.0, 130.0, 0.2)[0] == "regression"
        assert bc.classify("x_us", 100.0, 110.0, 0.2)[0] == "ok"
        assert bc.classify("x_us", 100.0, 50.0, 0.2)[0] == "moved"
        assert bc.classify("x_us", 100.0, 90.0, 0.2)[0] == "ok"
        assert bc.classify("x_mibs", 100.0, 70.0, 0.2)[0] == "regression"
        assert bc.classify("x_mibs", 100.0, 300.0, 0.2)[0] == "moved"
        assert bc.classify("x_ops", 100.0, 70.0, 0.2)[0] == "regression"
        assert bc.classify("x_ops", 100.0, 300.0, 0.2)[0] == "moved"
        assert bc.classify("x_ops", 100.0, 95.0, 0.2)[0] == "ok"
        assert bc.classify("x_other", 100.0, 130.0, 0.2)[0] == "regression"
        assert bc.classify("x_other", 100.0, 70.0, 0.2)[0] == "regression"
        assert bc.classify("x_other", 100.0, 110.0, 0.2)[0] == "ok"
        # The price gate's tolerance: any move beyond it fails.
        assert bc.classify("x_us", 100.0, 100.0 - 1e-3, 1e-6)[0] == "moved"
        assert bc.classify("x_mibs", 100.0, 100.0, 1e-6)[0] == "ok"
        lines, failed = bc.compare({"a_us": 100.0}, {"a_us": 50.0}, 1e-6)
        assert failed and any("regenerate the baseline" in l for l in lines)

    def test_missing_metric_fails(self):
        bc = load_bench_compare()
        _, failed = bc.compare({"a_us": 1.0}, {})
        assert failed

    def test_new_metric_is_reported_not_failed(self):
        bc = load_bench_compare()
        lines, failed = bc.compare({"a_us": 1.0}, {"a_us": 1.0, "b_us": 2.0})
        assert not failed
        assert any("new metric" in line for line in lines)

    def test_budget_parses_quiet_and_fenced_summaries(self):
        budget = load_tool("pytest_budget")
        assert budget.total_seconds("5 passed, 38 deselected in 1.27s") == 1.27
        assert budget.total_seconds(
            "=== 1092 passed in 74.21s (0:01:14) ===") == 74.21
        assert budget.total_seconds("no summary here") is None

    def test_budget_exit_codes(self, tmp_path):
        budget = load_tool("pytest_budget")
        report = tmp_path / "durations.txt"
        report.write_text("12 passed in 3.50s\n")
        assert budget.main([str(report), "--budget-seconds", "60"]) == 0
        assert budget.main([str(report), "--budget-seconds", "1"]) == 1
        report.write_text("garbage\n")
        assert budget.main([str(report), "--budget-seconds", "60"]) == 2

    def test_cli_exit_codes(self, tmp_path):
        bc_path = REPO / "tools" / "bench_compare.py"
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"a_us": 100.0}))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"a_us": 105.0}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"a_us": 200.0}))
        ok = subprocess.run([sys.executable, str(bc_path), str(base), str(good)],
                            capture_output=True, text=True)
        assert ok.returncode == 0 and "RESULT: ok" in ok.stdout
        fail = subprocess.run([sys.executable, str(bc_path), str(base), str(bad)],
                              capture_output=True, text=True)
        assert fail.returncode == 1 and "RESULT: REGRESSION" in fail.stdout
