"""The docs-coverage guard itself stays honest.

``tools/docs_check.py`` is what CI runs; these tests pin (a) that the
repo currently passes it, and (b) that its checks actually detect the
failures they claim to — an always-green guard is worse than none.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "docs_check", ROOT / "tools" / "docs_check.py")
docs_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(docs_check)


def test_repo_passes_the_guard(capsys):
    assert docs_check.main([]) == 0
    out = capsys.readouterr().out
    assert "docs_check: ok" in out


def test_mention_forms_include_ancestors_and_paths():
    forms = docs_check._mention_forms("repro.mpi.transport.scheduler")
    # The module itself, with and without the top-level prefix, by path.
    assert "repro.mpi.transport.scheduler" in forms
    assert "mpi.transport.scheduler" in forms
    assert "repro/mpi/transport/scheduler" in forms
    # Any documented ancestor package covers it.
    assert "repro.mpi.transport" in forms
    assert "repro.mpi" in forms
    assert "repro" in forms


def test_module_coverage_detects_an_undocumented_module():
    failures = docs_check.check_module_coverage("nothing relevant here")
    # Every module must be flagged against an unrelated corpus.
    assert len(failures) == len(docs_check.source_modules())
    assert all("is mentioned in no documentation" in f for f in failures)


def test_module_coverage_accepts_ancestor_mention():
    corpus = " ".join(f"repro.{m.split('.')[1]}"
                      for m in docs_check.source_modules() if "." in m)
    corpus += " repro"
    assert docs_check.check_module_coverage(corpus) == []


def test_cli_entry_points_detected_when_missing():
    failures = docs_check.check_cli_entry_points("no CLI names here")
    names = {f.split()[3] for f in failures}
    assert {"repro-trace", "repro-faults",
            "repro-svc", "repro-scenarios"} <= names


def test_cli_entry_points_pass_when_documented():
    assert docs_check.check_cli_entry_points(
        "repro-trace repro-faults repro-svc repro-scenarios") == []


def test_cross_links_all_resolve():
    assert docs_check.check_cross_links() == []


def test_link_regex_extracts_relative_targets_only_once():
    found = docs_check._LINK_RE.findall(
        "see [QOS](QOS.md) and [web](https://x.invalid/p) "
        "and [anchor](#section)")
    assert found == ["QOS.md", "https://x.invalid/p", "#section"]


def test_every_source_module_is_enumerated():
    modules = docs_check.source_modules()
    assert "repro" in modules           # the package __init__
    assert "repro.qos" in modules       # this PR's subsystem
    assert all("__pycache__" not in m and "__init__" not in m
               for m in modules)
    assert len(modules) == len(set(modules))


def test_span_kinds_find_the_known_emitters():
    kinds = docs_check.span_kinds()
    assert {"send", "recv", "chunk.write", "osc.put", "recover.retry",
            "svc.get", "repl.put", "scenario.step"} <= set(kinds)
    assert kinds["send"] == ("span", ["repro.mpi.pt2pt.engine"])
    assert kinds["fabric.xfer"] == ("event", ["repro.hardware.sci.fabric"])


def test_metric_names_cover_every_source():
    names = docs_check.metric_names()
    assert len(names) == len(set(names)) > 250
    assert {"pt2pt.sends", "svc.read_giveups", "repl.sojourn_latency_us.p99",
            "scenario.step_time_us.count", "qos.tenants", "svc.shard_ops",
            "rebalance.epoch", "span.chunk.write.time_us",
            "kv_overload_p99_us"} <= set(names)


OBSERVABILITY = docs_check.OBSERVABILITY.read_text()


def test_generated_tables_pass_unchanged():
    assert docs_check.check_generated(OBSERVABILITY) == []


@pytest.mark.parametrize("block, prefix", [("metric-names", "| `pt2pt.*` |"),
                                           ("span-kinds", "| `send` |")])
def test_generated_tables_catch_a_missing_row(block, prefix):
    row = next(line for line in OBSERVABILITY.splitlines()
               if line.startswith(prefix))
    tampered = OBSERVABILITY.replace(row + "\n", "")
    assert docs_check.check_generated(tampered) == [
        f"docs/OBSERVABILITY.md: {block}: row missing: {row}"]


@pytest.mark.parametrize("block, prefix, row", [
    ("metric-names", "| `sim.*` |", "| `bogus.*` | `bogus.metric` |"),
    ("span-kinds", "| `send` |", "| `bogus` | span | repro.bogus |"),
])
def test_generated_tables_catch_an_extra_row(block, prefix, row):
    tampered = OBSERVABILITY.replace(prefix, f"{row}\n{prefix}", 1)
    assert docs_check.check_generated(tampered) == [
        f"docs/OBSERVABILITY.md: {block}: row not produced by the code: "
        f"{row}"]
