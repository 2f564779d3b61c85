"""Docs-don't-rot tests: README code blocks run, docstrings are present."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def python_blocks(markdown: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.S)


class TestReadme:
    def test_self_contained_snippets_run(self):
        readme = (ROOT / "README.md").read_text()
        blocks = python_blocks(readme)
        assert blocks, "README must contain python examples"
        ran = 0
        for block in blocks:
            # Only run self-contained snippets (they build their own Cluster
            # and reference no undefined names like fragment examples do).
            if "Cluster(" not in block or "..." in block or "data," in block:
                continue
            exec(compile(block, "<README>", "exec"), {})
            ran += 1
        assert ran >= 1

    def test_mentions_all_examples(self):
        readme = (ROOT / "README.md").read_text()
        for script in (ROOT / "examples").glob("*.py"):
            assert script.name in readme, f"README must mention {script.name}"


class TestDesignAndExperiments:
    def test_design_lists_every_experiment(self):
        design = (ROOT / "DESIGN.md").read_text()
        for eid in [f"E{i}" for i in range(1, 10)]:
            assert eid in design

    def test_experiments_covers_every_artefact(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for artefact in ("Figure 1", "Figure 7", "Figure 9", "Figure 10",
                         "Figure 11", "Figure 12", "Table 1", "Table 2",
                         "Sec. 4.3"):
            assert artefact in experiments, artefact

    def test_benchmark_modules_exist_for_every_experiment(self):
        bench = ROOT / "benchmarks"
        for name in ("test_fig1_raw_sci", "test_fig7_noncontig",
                     "test_sec43_strided_write", "test_fig9_sparse",
                     "test_fig10_platforms_noncontig",
                     "test_fig11_platforms_sparse", "test_fig12_scaling",
                     "test_table1_catalogue", "test_table2_ring",
                     "test_ablations"):
            assert (bench / f"{name}.py").exists(), name


class TestDocstrings:
    def test_public_modules_have_docstrings(self):
        import importlib

        modules = [
            "repro", "repro.sim", "repro.memlib", "repro.hardware",
            "repro.hardware.sci", "repro.smi", "repro.mpi",
            "repro.mpi.datatypes", "repro.mpi.flatten", "repro.mpi.pt2pt",
            "repro.mpi.coll", "repro.mpi.osc", "repro.platforms",
            "repro.bench", "repro.cluster", "repro.apps", "repro.obs.trace",
        ]
        for name in modules:
            mod = importlib.import_module(name)
            assert mod.__doc__ and len(mod.__doc__.strip()) > 20, name

    def test_public_api_items_documented(self):
        import repro

        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not isinstance(obj, type(repro.KiB)):
                assert obj.__doc__, f"repro.{name} lacks a docstring"


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
