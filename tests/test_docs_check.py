"""The docs-coverage guard itself stays honest.

``tools/docs_check.py`` is what CI runs; these tests pin (a) that the
repo currently passes it, and (b) that its checks actually detect the
failures they claim to — an always-green guard is worse than none.
"""

import pytest

from .test_bench_smoke import load_tool

docs_check = load_tool("docs_check")


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
    assert {"repro", "repro-trace", "repro-faults",
            "repro-svc", "repro-scenarios"} <= names


def test_cli_entry_points_pass_when_documented():
    assert docs_check.check_cli_entry_points(
        "repro repro-trace repro-faults repro-svc repro-scenarios") == []


def test_cross_links_all_resolve():
    assert docs_check.check_cross_links() == []


def test_file_references_resolve_both_ways():
    """Repo-relative paths and tails of ``src/repro`` paths both count;
    anything else is named with its document."""
    text = ("`tools/docs_check.py`, `flatten/plan.py`, `osc/window.py`, "
            "`tests/test_gone.py` and `mpi/flatten/engine.py`")
    assert docs_check.check_file_references("docs/X.md", text) == [
        "docs/X.md: no such file -> tests/test_gone.py",
        "docs/X.md: no such file -> mpi/flatten/engine.py"]


def test_file_references_catch_a_tampered_doc():
    doc = docs_check.ROOT / "docs" / "PACK_PLANS.md"
    text = doc.read_text()
    assert docs_check.check_file_references("docs/PACK_PLANS.md", text) == []
    tampered = text.replace("`tests/test_pack_plan.py`",
                            "`tests/test_pack_engine.py`", 1)
    assert docs_check.check_file_references("docs/PACK_PLANS.md", tampered) == [
        "docs/PACK_PLANS.md: no such file -> tests/test_pack_engine.py"]


def test_experiments_log_is_exempt_from_file_references():
    assert "EXPERIMENTS.md" in docs_check.DOC_GLOBS
    assert "EXPERIMENTS.md" not in docs_check.REFERENCE_GLOBS


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


#: The document of each generated block.
BLOCKS = {"metric-names": docs_check.OBSERVABILITY,
          "span-kinds": docs_check.OBSERVABILITY,
          "verdicts": docs_check.PROTOCOLS}


@pytest.mark.parametrize("doc", sorted(set(BLOCKS.values())),
                         ids=lambda doc: doc.name)
def test_generated_tables_pass_unchanged(doc):
    assert docs_check.check_generated(doc, doc.read_text()) == []


@pytest.mark.parametrize("block, prefix", [
    ("metric-names", "| `pt2pt.*` |"),
    ("span-kinds", "| `send` |"),
    ("verdicts", "| SCI, 2 nodes | get | shared |"),
])
def test_generated_tables_catch_a_missing_row(block, prefix):
    doc = BLOCKS[block]
    text = doc.read_text()
    row = next(line for line in text.splitlines() if line.startswith(prefix))
    tampered = text.replace(row + "\n", "")
    assert docs_check.check_generated(doc, tampered) == [
        f"{doc.relative_to(docs_check.ROOT)}: {block}: row missing: {row}"]


@pytest.mark.parametrize("block, prefix, row", [
    ("metric-names", "| `sim.*` |", "| `bogus.*` | `bogus.metric` |"),
    ("span-kinds", "| `send` |", "| `bogus` | span | repro.bogus |"),
    ("verdicts", "| one node | put | shared |",
     "| one node | put | shared | `emulated` from 8 B |"),
])
def test_generated_tables_catch_an_extra_row(block, prefix, row):
    doc = BLOCKS[block]
    tampered = doc.read_text().replace(prefix, f"{row}\n{prefix}", 1)
    assert docs_check.check_generated(doc, tampered) == [
        f"{doc.relative_to(docs_check.ROOT)}: {block}: row not produced by "
        f"the code: {row}"]
