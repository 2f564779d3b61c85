"""Docs guard: every span kind and metric name in src/ is documented.

``docs/OBSERVABILITY.md`` is the authoritative name registry; this
module greps the code for every name it can emit and fails if one is
missing from the document.  CLI JSON-purity contracts ride along.
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC = (ROOT / "docs" / "OBSERVABILITY.md").read_text()

_TRACE_RE = re.compile(r'_trace\(\s*"([a-z_.]+)"')


def traced_kinds() -> set[str]:
    from repro.svc.store import (KV_INSTANTS, KV_SPANS, ReplInstruments,
                                 SvcInstruments)

    kinds = set()
    for path in (ROOT / "src").rglob("*.py"):
        kinds.update(_TRACE_RE.findall(path.read_text()))
    # The one KV store prefixes its events with its instruments'
    # namespace at run time, so no literal exists to grep for.
    for ns in (SvcInstruments.prefix, ReplInstruments.prefix):
        kinds.update(f"{ns}.{span}.{edge}" for span in KV_SPANS
                     for edge in ("begin", "end"))
        kinds.update(f"{ns}.{instant}" for instant in KV_INSTANTS)
    return kinds


def base_kinds() -> set[str]:
    out = set()
    for kind in traced_kinds():
        out.add(re.sub(r"\.(begin|end)$", "", kind))
    return out


class TestSpanTaxonomy:
    def test_found_the_known_emitters(self):
        kinds = base_kinds()
        assert {"send", "recv", "chunk.write", "osc.put", "recover.retry",
                "fabric.xfer"} <= kinds

    def test_every_span_kind_documented(self):
        for kind in sorted(base_kinds()):
            assert f"`{kind}`" in DOC, (
                f"span kind {kind!r} is traced in src/ but missing from "
                "docs/OBSERVABILITY.md"
            )


class TestMetricNames:
    def test_every_registry_name_documented(self):
        from repro.cluster import Cluster

        registry = Cluster(n_nodes=2).metrics
        names = registry.names()
        assert len(names) >= 50
        for name in names:
            assert f"`{name}`" in DOC, (
                f"metric {name!r} is wired in build_registry but missing "
                "from docs/OBSERVABILITY.md"
            )

    def test_documented_policy_and_engine_rows_are_wired(self):
        """The other direction, for the two families whose rows describe
        switches and fast paths: a row that outlives its gauge (the
        ``policy.fastpath_*`` echoes PR 16 removed) fails here."""
        from repro.cluster import Cluster

        wired = set(Cluster(n_nodes=2).metrics.names())
        documented = set(re.findall(
            r"^\| `((?:policy|engine)\.[a-z0-9_.]+)` \|", DOC, re.M))
        assert len(documented) >= 15
        assert documented <= wired, sorted(documented - wired)

    def test_every_possible_span_metric_documented(self):
        paired = {re.sub(r"\.begin$", "", k) for k in traced_kinds()
                  if k.endswith(".begin")}
        assert paired
        for op in sorted(paired):
            for suffix in ("count", "time_us"):
                name = f"span.{op}.{suffix}"
                assert f"`{name}`" in DOC, (
                    f"span metric {name!r} can be emitted but is missing "
                    "from docs/OBSERVABILITY.md"
                )

    def test_every_smoke_metric_documented(self):
        from repro.bench.smoke import SMOKE_METRICS

        for name in SMOKE_METRICS:
            assert f"`{name}`" in DOC, name

    def test_every_kv_service_metric_documented(self):
        """The service registers its instruments outside build_registry,
        so the cluster-registry guard above never sees them — enumerate
        both namespaces of the one store's instruments plus the three
        collector families from the svc name tuples instead."""
        from repro.obs.metrics import _HISTOGRAM_FIELDS
        from repro.svc.driver import (REPL_COLLECTOR_METRICS,
                                      SVC_COLLECTOR_METRICS)
        from repro.svc.rebalance import REBALANCE_COLLECTOR_METRICS
        from repro.svc.store import ReplInstruments, SvcInstruments

        names = []
        for cls in (SvcInstruments, ReplInstruments):
            names += [f"{cls.prefix}.{counter}"
                      for counter in cls.counter_names]
            names += [f"{cls.prefix}.{hist}.{field}"
                      for hist in cls.histogram_names
                      for field in _HISTOGRAM_FIELDS]
        # The two bugfix names of ISSUE 12 are visible in both.
        assert {"svc.read_giveups", "repl.read_giveups",
                "svc.write_fast", "repl.write_fast"} <= set(names)
        names += list(SVC_COLLECTOR_METRICS)
        names += list(REPL_COLLECTOR_METRICS)
        names += list(REBALANCE_COLLECTOR_METRICS)
        assert len(names) >= 35 + 55
        for name in names:
            assert f"`{name}`" in DOC, (
                f"service metric {name!r} is registered by execute_service "
                "but missing from docs/OBSERVABILITY.md"
            )

    def test_every_scenario_metric_documented(self):
        """The scenario driver likewise registers its instruments outside
        build_registry — enumerate them from the scenario name tuples."""
        from repro.obs.metrics import _HISTOGRAM_FIELDS
        from repro.scenarios import SCENARIO_COUNTERS, SCENARIO_HISTOGRAMS

        names = [f"scenario.{counter}" for counter in SCENARIO_COUNTERS]
        names += [f"scenario.{hist}.{field}" for hist in SCENARIO_HISTOGRAMS
                  for field in _HISTOGRAM_FIELDS]
        assert len(names) >= 11
        for name in names:
            assert f"`{name}`" in DOC, (
                f"scenario metric {name!r} is registered by run_scenario "
                "but missing from docs/OBSERVABILITY.md"
            )

    def test_every_qos_metric_documented(self):
        """The QoS manager also registers outside build_registry —
        enumerate counters, gauges and histograms from its name tuples."""
        from repro.obs.metrics import _HISTOGRAM_FIELDS
        from repro.qos import QOS_COUNTERS, QOS_GAUGES, QOS_HISTOGRAMS

        names = [f"qos.{counter}" for counter in QOS_COUNTERS]
        names += [f"qos.{gauge}" for gauge in QOS_GAUGES]
        names += [f"qos.{hist}.{field}" for hist in QOS_HISTOGRAMS
                  for field in _HISTOGRAM_FIELDS]
        assert len(names) >= 25
        for name in names:
            assert f"`{name}`" in DOC, (
                f"qos metric {name!r} is registered by QosManager but "
                "missing from docs/OBSERVABILITY.md"
            )

    def test_every_scenario_headline_gauge_documented(self):
        from repro.bench.smoke import SCENARIO_HEADLINES
        from repro.scenarios import get_scenario

        for gauge_name, scenario in SCENARIO_HEADLINES:
            assert get_scenario(scenario).headline_metric == gauge_name
            assert f"`{gauge_name}`" in DOC, gauge_name


class TestDocumentationMap:
    def test_readme_links_every_doc(self):
        readme = (ROOT / "README.md").read_text()
        for doc in (ROOT / "docs").glob("*.md"):
            assert f"docs/{doc.name}" in readme, (
                f"README.md documentation map must mention docs/{doc.name}"
            )

    def test_observability_cross_linked(self):
        for name in ("PROTOCOLS.md", "FAULTS.md", "PACK_PLANS.md",
                     "SCENARIOS.md"):
            text = (ROOT / "docs" / name).read_text()
            assert "OBSERVABILITY.md" in text, name

    def test_qos_cross_linked(self):
        for name in ("PROTOCOLS.md", "TOPOLOGY.md", "FAULTS.md",
                     "SCENARIOS.md", "OBSERVABILITY.md"):
            text = (ROOT / "docs" / name).read_text()
            assert "QOS.md" in text, name

    def test_replication_cross_linked(self):
        for name in ("SERVICE.md", "FAULTS.md", "QOS.md",
                     "SCENARIOS.md", "OBSERVABILITY.md"):
            text = (ROOT / "docs" / name).read_text()
            assert "REPLICATION.md" in text, name

    def test_experiments_have_regeneration_commands(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        assert experiments.count("> Regenerate: `") >= 10


class TestCliJsonPurity:
    def test_bench_smoke_json_stdout_is_pure(self, monkeypatch, capsys):
        from repro.bench import __main__ as bench_main

        monkeypatch.setattr("repro.bench.smoke.run_smoke",
                            lambda: {"stub_us": 1.5, "stub_mibs": 2.0})
        assert bench_main.main(["--smoke", "--json", "-"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out) == {"stub_us": 1.5, "stub_mibs": 2.0}
        assert "stub_us" in err  # the human table moved to stderr

    def test_repro_faults_json_stdout_is_pure(self, capsys):
        from repro.repro_faults import main

        rc = main(["--suite", "pt2pt", "--seeds", "1", "--json", "-"])
        assert rc == 0
        out, err = capsys.readouterr()
        reports = json.loads(out)
        assert reports[0]["suite"] == "pt2pt" and reports[0]["ok"]
        assert "cells" in err  # the human report moved to stderr

    def test_repro_svc_json_stdout_is_pure(self, capsys):
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

    def test_repro_trace_writes_artifacts(self, tmp_path, capsys):
        from repro.obs.cli import main

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        rc = main(["--size", "4096", "--trace", str(trace_path),
                   "--metrics", str(metrics_path), "--no-timeline"])
        assert rc == 0
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]
        metrics = json.loads(metrics_path.read_text())
        for name in metrics:
            assert f"`{name}`" in DOC, (
                f"metrics.json key {name!r} missing from docs/OBSERVABILITY.md"
            )
        out = capsys.readouterr().out
        assert str(trace_path) in out and str(metrics_path) in out

    def test_repro_trace_embeds_fault_plan(self, tmp_path):
        from repro.obs.cli import main

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
def test_all_scenarios_trace_cleanly(scenario, tmp_path):
    from repro.obs.cli import main

    rc = main(["--scenario", scenario, "--size", "8192",
               "--trace", str(tmp_path / "t.json"),
               "--metrics", str(tmp_path / "m.json"), "--no-timeline"])
    assert rc == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    assert len(doc["traceEvents"]) > 3
