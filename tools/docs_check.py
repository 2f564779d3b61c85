#!/usr/bin/env python3
"""Docs-coverage guard: the documentation must keep up with the code.

Usage::

    python tools/docs_check.py            # from the repo root
    python tools/docs_check.py --list     # also print the coverage map

Five checks, each with actionable per-item output:

* **module coverage** — every module under ``src/repro`` must be
  mentioned in at least one documentation file (``docs/*.md``,
  ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md``).  A module counts as
  covered if its dotted name, its source path, or any ancestor package's
  dotted name appears — documenting ``repro.mpi.transport`` covers
  ``repro.mpi.transport.scheduler``; a brand-new package with no doc
  trail anywhere fails.
* **cross-links resolve** — every relative markdown link target in the
  documentation files must exist on disk (anchors and absolute URLs are
  ignored), so renaming or dropping a doc breaks CI instead of readers.
* **named files exist** — every backticked ``*.py`` path in
  ``README.md``, ``DESIGN.md`` and ``docs/*.md`` must exist, repo-relative
  (``tests/test_cli.py``) or as the trailing path of a module under
  ``src/repro`` (``flatten/plan.py``).  ``EXPERIMENTS.md`` is exempt: its
  run lists are history.
* **CLI entry points documented** — every console script declared in
  ``pyproject.toml`` (``repro`` and its aliases ``repro-trace``,
  ``repro-faults``, ``repro-svc``, ``repro-scenarios``) must appear in
  the documentation.
* **generated name tables current** — the blocks between
  ``<!-- generated: NAME -->`` and ``<!-- end generated -->`` in
  ``docs/OBSERVABILITY.md`` must equal what the code produces today:
  every metric name (``build_registry`` on a 2-node cluster, the
  ``Instruments`` subclasses, the QoS collector, the
  ``*_COLLECTOR_METRICS`` tuples, span kinds x ``{count, time_us}``,
  ``SMOKE_METRICS``) and every traced span kind.  A missing row and a row
  the code no longer produces both fail, naming the row.  This check
  imports ``repro`` (from ``src/`` when the package is not installed).

Exit status: 0 when all five checks pass, 1 otherwise.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:  # the name tables import repro
    sys.path.append(str(ROOT / "src"))

#: The documentation corpus, in scan order.
DOC_GLOBS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

#: The documents whose named ``*.py`` files must exist.
REFERENCE_GLOBS = ("README.md", "DESIGN.md", "docs/*.md")

#: Markdown inline links: [text](target).  Images share the syntax.
_LINK_RE = re.compile(r"\]\(([^)\s]+)\)")

#: A backticked python file path: `tools/docs_check.py`, `flatten/plan.py`.
_PY_PATH_RE = re.compile(r"`([\w./-]+\.py)`")

#: The document whose name tables are generated from the code.
OBSERVABILITY = ROOT / "docs" / "OBSERVABILITY.md"

_BLOCK_RE = re.compile(
    r"<!-- generated: ([a-z-]+) -->\n(.*?)<!-- end generated -->", re.S)

#: Trace calls with a literal kind: ``_trace("kind"`` or
#: ``.record(time, rank, "kind"``.
_TRACE_RE = re.compile(
    r'(?:_trace|\.record)\([^")]*?"([a-z_]+(?:\.[a-z_]+)+)"')


def doc_files(globs=DOC_GLOBS) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for pattern in globs:
        files.extend(sorted(ROOT.glob(pattern)))
    return files


def source_modules() -> list[str]:
    """Dotted names of every module under src/repro (packages once)."""
    modules = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(ROOT / "src")
        if "__pycache__" in rel.parts:
            continue
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules.append(".".join(parts))
    return modules


def _mention_forms(module: str) -> list[str]:
    """Every textual form that counts as documenting ``module``."""
    parts = module.split(".")
    forms = []
    # The module itself and every ancestor package, by dotted name
    # (with and without the top-level "repro." prefix) and by path.
    for depth in range(len(parts), 0, -1):
        prefix = parts[:depth]
        forms.append(".".join(prefix))
        if len(prefix) > 1:
            forms.append(".".join(prefix[1:]))
            forms.append("/".join(prefix))
    return forms


def check_module_coverage(corpus: str) -> list[str]:
    failures = []
    for module in source_modules():
        if not any(form in corpus for form in _mention_forms(module)):
            failures.append(
                f"module {module} is mentioned in no documentation file")
    return failures


def check_cross_links() -> list[str]:
    failures = []
    for doc in doc_files():
        for target in _LINK_RE.findall(doc.read_text()):
            if "://" in target or target.startswith(("#", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            if not (doc.parent / target).exists():
                failures.append(
                    f"{doc.relative_to(ROOT)}: broken link -> {target}")
    return failures


def check_file_references(doc: str, text: str) -> list[str]:
    """Backticked ``*.py`` paths in ``text`` (document ``doc``) that name
    no file: neither repo-relative nor the tail of a ``src/repro`` path."""
    modules = [path.as_posix()
               for path in (ROOT / "src" / "repro").rglob("*.py")]
    return [f"{doc}: no such file -> {ref}"
            for ref in _PY_PATH_RE.findall(text)
            if not (ROOT / ref).exists()
            and not any(module.endswith("/" + ref) for module in modules)]


def check_cli_entry_points(corpus: str) -> list[str]:
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    scripts = pyproject.get("project", {}).get("scripts", {})
    failures = []
    if not scripts:
        failures.append("pyproject.toml declares no [project.scripts]")
    for name in sorted(scripts):
        if name not in corpus:
            failures.append(
                f"CLI entry point {name} is mentioned in no documentation "
                "file")
    return failures


def span_kinds() -> dict[str, tuple[str, list[str]]]:
    """Every traced kind in ``src/``: kind -> (style, emitting modules).

    ``<kind>.begin`` / ``<kind>.end`` events make a ``span`` kind; any
    other literal is an ``event``.  The KV store prefixes its kinds with
    its instruments' namespace at run time, so those come from
    ``KV_SPANS`` / ``KV_INSTANTS`` instead of a literal.
    """
    from repro.svc.store import (KV_INSTANTS, KV_SPANS, ReplInstruments,
                                 SvcInstruments)

    found: dict[str, tuple[str, set[str]]] = {}

    def add(kind: str, module: str) -> None:
        base, _, edge = kind.rpartition(".")
        style = "span" if edge in ("begin", "end") else "event"
        key = base if style == "span" else kind
        found.setdefault(key, (style, set()))[1].add(module)

    for module in source_modules():
        path = ROOT / "src" / (module.replace(".", "/") + ".py")
        if not path.exists():
            path = path.with_suffix("") / "__init__.py"
        for kind in _TRACE_RE.findall(path.read_text()):
            add(kind, module)
    for ns in (SvcInstruments.prefix, ReplInstruments.prefix):
        for span in KV_SPANS:
            add(f"{ns}.{span}.begin", "repro.svc.store")
        for instant in KV_INSTANTS:
            add(f"{ns}.{instant}", "repro.svc.store")
    return {kind: (style, sorted(modules))
            for kind, (style, modules) in sorted(found.items())}


def metric_names() -> list[str]:
    """Every metric name the code can emit, each once."""
    # Imported for the Instruments subclasses they define.
    import repro.scenarios  # noqa: F401
    import repro.svc  # noqa: F401
    from repro.bench.smoke import SMOKE_METRICS
    from repro.cluster import Cluster
    from repro.obs.metrics import Instruments, MetricsRegistry
    from repro.qos import QosManager
    from repro.svc.driver import REPL_COLLECTOR_METRICS, SVC_COLLECTOR_METRICS
    from repro.svc.rebalance import REBALANCE_COLLECTOR_METRICS

    cluster = Cluster(n_nodes=2)
    names = cluster.metrics.names()
    families, pending = [], [Instruments]
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        families.append(cls)
    registry = MetricsRegistry()
    # Sorted: subclass order is import order, which varies by entry point.
    for cls in sorted(families, key=lambda c: (c.__module__, c.__qualname__)):
        if cls.prefix:
            cls.registered(registry)
    QosManager.install(cluster).register_metrics(registry)
    names += registry.names()
    names += [*SVC_COLLECTOR_METRICS, *REPL_COLLECTOR_METRICS,
              *REBALANCE_COLLECTOR_METRICS]
    names += [f"span.{kind}.{suffix}"
              for kind, (style, _) in span_kinds().items() if style == "span"
              for suffix in ("count", "time_us")]
    names += SMOKE_METRICS
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"metric names emitted twice: {repeated}")
    return names


def generated_blocks() -> dict[str, list[str]]:
    """The rows of each generated block, as the code produces them."""
    from repro.obs.metrics import _HISTOGRAM_FIELDS

    names = metric_names()
    histograms = {name.rpartition(".")[0] for name in names
                  if name.endswith(f".{_HISTOGRAM_FIELDS[-1]}")}
    families: dict[str, list[str]] = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if base in histograms:
            if field != _HISTOGRAM_FIELDS[0]:
                continue
            name = f"{base}.*"
        family = f"`{name.split('.')[0]}.*`" if "." in name else "smoke"
        families.setdefault(family, []).append(f"`{name}`")
    metric_rows = ["| family | names |", "|---|---|"] + [
        f"| {family} | {' '.join(members)} |"
        for family, members in families.items()]
    span_rows = ["| kind | style | emitted by |", "|---|---|---|"] + [
        f"| `{kind}` | {style} | {', '.join(modules)} |"
        for kind, (style, modules) in span_kinds().items()]
    return {"metric-names": metric_rows, "span-kinds": span_rows}


def check_generated(text: str) -> list[str]:
    """Failures of the generated blocks in ``text`` against the code."""
    doc = OBSERVABILITY.relative_to(ROOT)
    found = {name: body.splitlines() for name, body in _BLOCK_RE.findall(text)}
    failures = []
    for name, rows in generated_blocks().items():
        have = found.get(name)
        if have is None:
            failures.append(f"{doc}: generated block {name!r} is missing")
            continue
        drift = ([f"{doc}: {name}: row missing: {row}"
                  for row in rows if row not in have]
                 + [f"{doc}: {name}: row not produced by the code: {row}"
                    for row in have if row not in rows])
        if not drift and have != rows:
            drift = [f"{doc}: {name}: rows out of order"]
        failures += drift
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check that docs cover modules, links, CLIs and names.")
    parser.add_argument("--list", action="store_true",
                        help="print the module coverage map")
    args = parser.parse_args(argv)

    corpus = "\n".join(doc.read_text() for doc in doc_files())
    if args.list:
        for module in source_modules():
            covered = any(f in corpus for f in _mention_forms(module))
            print(f"  {'ok  ' if covered else 'MISS'} {module}")

    failures = (check_module_coverage(corpus)
                + check_cross_links()
                + [failure for doc in doc_files(REFERENCE_GLOBS)
                   for failure in check_file_references(
                       doc.relative_to(ROOT).as_posix(), doc.read_text())]
                + check_cli_entry_points(corpus)
                + check_generated(OBSERVABILITY.read_text()))
    for failure in failures:
        print(f"docs_check: {failure}", file=sys.stderr)
    n_docs, n_modules = len(doc_files()), len(source_modules())
    if failures:
        print(f"docs_check: FAIL ({len(failures)} problems over {n_docs} "
              f"docs, {n_modules} modules)", file=sys.stderr)
        return 1
    print(f"docs_check: ok ({n_modules} modules covered, every link in "
          f"{n_docs} docs resolves, every named file exists, all CLI entry "
          "points documented, name tables current)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
