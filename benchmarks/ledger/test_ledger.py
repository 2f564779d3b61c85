"""Self-test of the ledger benchmark (outside tier-1's ``testpaths``).

    python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
sys.path[:0] = [str(LEDGER_DIR), str(REPO_ROOT / "src")]

import child  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS, OTHER, layer_of_module, layer_of_path  # noqa: E402
from profiler import LayerProfile  # noqa: E402

#: What the benchmark contract accepts as a name and as a unit.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: A sparse_put small enough for a unit test: 2 window kinds x 2 sizes.
TINY_SPARSE = {"window": 2048, "access_sizes": [8, 64]}


def test_every_source_file_maps_to_one_named_layer():
    repro_dir = REPO_ROOT / "src" / "repro"
    files = sorted(repro_dir.rglob("*.py"))
    assert len(files) > 100
    for path in files:
        layer = layer_of_module(path.relative_to(repro_dir).as_posix())
        assert layer != OTHER, f"{path} falls into no layer"
        assert layer in LAYERS
        assert layer_of_path(str(path), f"{repro_dir}/",
                             f"{LEDGER_DIR}/") == layer
    assert len(LAYERS) == len(set(LAYERS)) == 24


def test_code_outside_the_program_maps_to_pseudo_layers():
    dirs = (f"{REPO_ROOT}/src/repro/", f"{LEDGER_DIR}/")
    assert layer_of_path(str(LEDGER_DIR / "workloads.py"), *dirs) == "bench"
    assert layer_of_path("/lib/python3/site-packages/numpy/core/x.py",
                         *dirs) == "numpy"
    assert layer_of_path("/lib/python3.11/heapq.py", *dirs) == "builtins"


def test_metric_tables_fit_the_contract():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    names = [*spec.WORKLOADS, *spec.END_TO_END, *spec.PER_LAYER]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME_RE.match(name), name
    for unit, better, bound in spec.END_TO_END.values():
        assert UNIT_RE.match(unit) and better in ("lower", "higher")
        assert 0.0 < bound <= 0.25
    for unit, better in spec.PER_LAYER.values():
        assert UNIT_RE.match(unit) and better in ("lower", "higher")
    assert spec.END_TO_END["setup_s"] == ("s", "lower", 0.25)
    assert set(workloads.WORKLOAD_CELLS) == set(spec.WORKLOADS)
    for layer in LAYERS:
        assert f"{layer}.self_s" in spec.PER_LAYER
        assert f"{layer}.calls_in" in spec.PER_LAYER


def test_benchmark_json_repeats_the_tables():
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert manifest["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert [w["name"] for w in manifest["workloads"]] == list(spec.WORKLOADS)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert manifest["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, (unit, better, bound) in spec.END_TO_END.items()]
    assert manifest["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in spec.PER_LAYER.items()]


def test_small_sparse_put_runs_through_driver_verifier_and_tracer(monkeypatch):
    monkeypatch.setitem(spec.SIZES, "sparse_put", TINY_SPARSE)
    plain = child.run_repeat("sparse_put", seed=3)
    assert plain.failures == []
    assert len(plain.cells) == 4 and plain.ops > 0 and plain.user_s > 0.0
    again = child.run_repeat("sparse_put", seed=3)
    assert again.signature == plain.signature, "repeats must be bit-identical"

    profile = LayerProfile(f"{REPO_ROOT}/src/repro/", f"{LEDGER_DIR}/")
    traced = child.run_repeat("sparse_put", seed=3, profile=profile)
    assert traced.failures == []
    assert traced.signature == plain.signature, "observing changed the run"
    for layer in ("sim", "mpi.osc", "hardware.sci.transactions", "bench"):
        assert profile.self_s[layer] > 0.0 and profile.calls_in[layer] > 0
    assert profile.self_s["mpi.datatypes"] < 0.05 * sum(
        profile.self_s.values())
    assert profile.unattributed_s < 0.02 * profile.wall_s
    assert set(traced.cells[0]["layer_self_s"]) == set(LAYERS)
    # The engine resumes rank programs through generator.send, a C
    # function, so the edge into the program body starts at ``builtins``.
    assert any(row["caller"] == "builtins"
               and row["callee"].endswith("SparseCell.run.<locals>.program")
               for row in profile.edge_rows())

    total, geomean = child.simulated_metrics(plain.cells)
    assert total > 0.0 and geomean > 0.0
    counts = child.aggregate_counts(plain.cells)
    assert counts["osc.direct_puts"] + counts["osc.emulated_puts"] == plain.ops


def test_verifier_sees_a_wrong_byte_and_a_touched_gap(monkeypatch):
    monkeypatch.setitem(spec.SIZES, "sparse_put", TINY_SPARSE)
    for into_gap in (False, True):
        cell = next(workloads.cells_for("sparse_put", seed=8))
        cell.build()
        cell.run()
        assert cell.check().failures == []
        victim = cell.offsets[0] + (cell.access if into_gap else 0)
        cell.wins[1].local_view()[victim] ^= 0xFF
        assert len(cell.check().failures) == 1


def test_layout_oracle_marks_data_runs_only():
    layout = workloads._vector_layout(block=16, total=64)
    assert layout.extent == 112 and layout.size == 64
    mask = layout.mask()
    assert mask.reshape(-1, 16)[::2].all()
    assert not mask.reshape(-1, 16)[1::2].any()
