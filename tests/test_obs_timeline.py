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
from repro.cluster import Cluster
from repro.cluster.cli import SCENARIOS
from repro.obs import (FABRIC_RANK, Tracer, attach_tracer, chrome_trace,
                       text_timeline)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_noncontig.json"
SIZE = 4 * KiB

VALID_PHASES = {"M", "B", "E", "X", "i"}


def rendered(tracer) -> str:
    doc = chrome_trace(tracer, other_data={"scenario": "noncontig",
                                           "size": SIZE})
    return json.dumps(doc, indent=1) + "\n"


def run_noncontig():
    """The traced ``repro trace --size 4096`` run: (cluster, tracer, registry)."""
    program, n_nodes = SCENARIOS["noncontig"](SIZE)
    cluster = Cluster(n_nodes=n_nodes)
    tracer = attach_tracer(cluster)
    cluster.run(program)
    return cluster, tracer, cluster.metrics


@pytest.fixture(scope="module")
def run():
    return run_noncontig()


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
        _, tracer2, _ = run_noncontig()
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
