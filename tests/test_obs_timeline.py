"""Chrome-trace exporter tests: golden file, track layout, B/E pairing.

Regenerate the golden file after an intentional timing or exporter
change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_timeline.py
"""

import json
import os
import pathlib

import pytest

from repro._units import KiB
from repro.obs import FABRIC_RANK, Tracer, chrome_trace, text_timeline
from repro.obs.cli import main, run_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_noncontig.json"
SIZE = 4 * KiB

VALID_PHASES = {"M", "B", "E", "X", "i"}


def rendered(tracer) -> str:
    doc = chrome_trace(tracer, other_data={"scenario": "noncontig",
                                           "size": SIZE})
    return json.dumps(doc, indent=1) + "\n"


@pytest.fixture(scope="module")
def run():
    return run_scenario("noncontig", size=SIZE)


@pytest.fixture(scope="module")
def trace(run):
    _, tracer, _ = run
    return chrome_trace(tracer)


class TestChromeTrace:
    def test_matches_golden(self, run):
        _, tracer, _ = run
        text = rendered(tracer)
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN.parent.mkdir(exist_ok=True)
            GOLDEN.write_text(text)
        assert GOLDEN.exists(), "golden file missing — regenerate (see module docstring)"
        assert text == GOLDEN.read_text()

    def test_deterministic_across_runs(self, run):
        _, tracer, _ = run
        _, tracer2, _ = run_scenario("noncontig", size=SIZE)
        assert rendered(tracer) == rendered(tracer2)

    def test_well_formed_events(self, trace):
        assert set(trace) >= {"traceEvents", "displayTimeUnit"}
        for ev in trace["traceEvents"]:
            assert ev["ph"] in VALID_PHASES, ev
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
            assert isinstance(ev["args"], dict)
            if ev["ph"] != "M":
                assert ev["ts"] >= 0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
            # args must be JSON-safe scalars
            for value in ev["args"].values():
                assert value is None or isinstance(value, (bool, int, float, str))

    def test_json_serializable(self, trace):
        json.loads(json.dumps(trace))

    def test_metadata_first(self, trace):
        phases = [ev["ph"] for ev in trace["traceEvents"]]
        n_meta = phases.count("M")
        assert n_meta > 0
        assert all(ph == "M" for ph in phases[:n_meta])
        assert all(ph != "M" for ph in phases[n_meta:])

    def test_at_least_three_tracks(self, trace):
        tracks = {(ev["pid"], ev["tid"]) for ev in trace["traceEvents"]
                  if ev["ph"] != "M"}
        assert len(tracks) >= 3  # rank 0, rank 1, ringlet 0
        assert {pid for pid, _ in tracks} == {0, 1}  # ranks + fabric

    def test_begin_end_pairing_nests_per_track(self, trace):
        stacks: dict[tuple, list] = {}
        for ev in trace["traceEvents"]:
            key = (ev["pid"], ev["tid"])
            if ev["ph"] == "B":
                stacks.setdefault(key, []).append(ev["name"])
            elif ev["ph"] == "E":
                stack = stacks.get(key)
                assert stack, f"E without B on track {key}: {ev}"
                assert stack.pop() == ev["name"], ev
        for key, stack in stacks.items():
            assert not stack, f"unclosed spans on track {key}: {stack}"

    def test_fabric_transfers_are_complete_events(self, run, trace):
        _, tracer, _ = run
        assert any(ev.rank == FABRIC_RANK for ev in tracer.events)
        xfers = [ev for ev in trace["traceEvents"]
                 if ev["ph"] == "X" and ev["pid"] == 1]
        assert xfers
        for ev in xfers:
            assert ev["name"] == "fabric.xfer"
            assert ev["args"]["op"] in ("pio_write", "pio_read", "dma", "raw")
            assert "start" not in ev["args"]  # folded into ts/dur

    def test_other_data_passthrough(self, run):
        _, tracer, _ = run
        doc = chrome_trace(tracer, other_data={"k": 1})
        assert doc["otherData"] == {"k": 1}
        assert "otherData" not in chrome_trace(tracer)


class TestTextTimeline:
    def test_contains_rank_and_fabric_lanes(self, run):
        _, tracer, _ = run
        text = text_timeline(tracer)
        assert "rank 0" in text and "rank 1" in text
        assert "fabric" in text
        assert "send" in text

    def test_empty_tracer(self):
        assert text_timeline(Tracer()) == "(empty timeline)"


class TestSpanMetrics:
    def test_span_counters_fed_from_tracer(self, run):
        _, tracer, registry = run
        snap = registry.snapshot()
        assert snap["span.send.count"] == 2  # pingpong: one send each way
        assert snap["span.recv.count"] == 2
        assert snap["span.send.time_us"] > 0
        assert snap["span.chunk.write.count"] >= 1
        # The registry pulls the tracer's one pairing: the same spans.
        spans = list(tracer.spans("send"))
        assert snap["span.send.time_us"] == sum(s.duration for s in spans)
        assert {k: v for k, v in snap.items() if k.startswith("span.")} \
            == tracer.span_metrics()


class TestReproTraceCli:
    def test_writes_artifacts(self, tmp_path, capsys):
        from .test_bench_smoke import load_tool

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        rc = main(["--size", "4096", "--trace", str(trace_path),
                   "--metrics", str(metrics_path), "--no-timeline"])
        assert rc == 0
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]
        metrics = json.loads(metrics_path.read_text())
        # Every key is one the generated docs/OBSERVABILITY.md table lists.
        assert set(metrics) <= set(load_tool("docs_check").metric_names())
        out = capsys.readouterr().out
        assert str(trace_path) in out and str(metrics_path) in out

    def test_embeds_fault_plan(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        rc = main(["--size", "4096", "--faults-seed", "1",
                   "--trace", str(trace_path),
                   "--metrics", str(tmp_path / "m.json"), "--no-timeline"])
        assert rc == 0
        doc = json.loads(trace_path.read_text())
        plan = doc["otherData"]["fault_plan"]
        assert plan["seed"] == 1
        assert set(plan["rates"]) == {"transient", "torn", "stall"}

    @pytest.mark.parametrize("scenario", ["pingpong", "osc", "collectives"])
    def test_all_scenarios_trace_cleanly(self, scenario, tmp_path):
        rc = main(["--scenario", scenario, "--size", "8192",
                   "--trace", str(tmp_path / "t.json"),
                   "--metrics", str(tmp_path / "m.json"), "--no-timeline"])
        assert rc == 0
        doc = json.loads((tmp_path / "t.json").read_text())
        assert len(doc["traceEvents"]) > 3
