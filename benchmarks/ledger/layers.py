"""Layer map: which layer of the stack a host code object belongs to.

The ledger attributes host time to the packages of ``src/repro/`` from
the outside — code objects are mapped to a layer by the path of the file
that defines them.  Every ``.py`` under ``src/repro/`` maps to exactly
one of the 21 real layers below; three pseudo-layers take the rest:
``bench`` (the workloads' own program bodies, i.e. this directory plus
``repro/bench``), ``numpy`` (native numpy code) and ``builtins`` (the
interpreter's C functions and the standard library).
"""

from __future__ import annotations

from pathlib import PurePath

__all__ = ["LAYERS", "OTHER", "layer_of_module", "layer_of_path",
           "layer_of_builtin"]

#: Longest-prefix-wins table over paths relative to ``src/repro/``.
#: A key ending in ``/`` covers a package; any other key names one file.
_PREFIXES: dict[str, str] = {
    "sim/": "sim",
    "hardware/sci/flows.py": "hardware.sci.flows",
    "hardware/sci/topology.py": "hardware.sci.topology",
    "hardware/sci/segments.py": "hardware.sci.segments",
    "hardware/sci/transactions.py": "hardware.sci.transactions",
    "hardware/sci/faults.py": "hardware.sci.faults",
    # fabric.py, the one-line ringlet shim and the package re-exports.
    "hardware/sci/": "hardware.sci.fabric",
    # cpu, memory, params, node — and the analytic comparison platforms,
    # which are node-level hardware models as well.
    "hardware/": "hardware.node",
    "platforms/": "hardware.node",
    "smi/": "smi",
    "memlib/": "memlib",
    "mpi/datatypes/": "mpi.datatypes",
    "mpi/flatten/": "mpi.flatten",
    "mpi/transport/": "mpi.transport",
    "mpi/osc/": "mpi.osc",
    "mpi/coll/": "mpi.coll",
    # The communicator, requests and errors front the pt2pt device.
    "mpi/": "mpi.pt2pt",
    "qos/": "qos",
    "svc/": "svc",
    "scenarios/": "scenarios",
    "apps/": "scenarios",
    "obs/": "obs",
    "trace.py": "obs",
    "cluster/": "cluster",
    # Package root: units, re-exports and the repro-faults CLI sit on
    # top of the cluster facade.
    "__init__.py": "cluster",
    "_units.py": "cluster",
    "repro_faults.py": "cluster",
    "bench/": "bench",
}

_LONGEST_FIRST = sorted(_PREFIXES, key=len, reverse=True)

#: Fallback for a path under ``src/repro/`` no prefix covers; the
#: self-test asserts nothing lands here.
OTHER = "other"

#: The 24 layers, in reporting order (stack bottom to top, pseudo last).
LAYERS: tuple[str, ...] = (
    "sim",
    "hardware.sci.flows",
    "hardware.sci.fabric",
    "hardware.sci.topology",
    "hardware.sci.segments",
    "hardware.sci.transactions",
    "hardware.sci.faults",
    "hardware.node",
    "smi",
    "memlib",
    "mpi.datatypes",
    "mpi.flatten",
    "mpi.transport",
    "mpi.pt2pt",
    "mpi.osc",
    "mpi.coll",
    "qos",
    "svc",
    "scenarios",
    "obs",
    "cluster",
    "bench",
    "numpy",
    "builtins",
)


def layer_of_module(relpath: str) -> str:
    """Layer of a file given its path relative to ``src/repro/``."""
    for prefix in _LONGEST_FIRST:
        if relpath == prefix or (prefix.endswith("/")
                                 and relpath.startswith(prefix)):
            return _PREFIXES[prefix]
    return OTHER


def layer_of_path(filename: str, repro_dir: str, ledger_dir: str) -> str:
    """Layer of a Python code object's ``co_filename``.

    ``repro_dir`` and ``ledger_dir`` are the absolute paths of
    ``src/repro/`` and of this directory, each with a trailing slash.
    Files outside both are numpy's Python shims (``numpy``) or the
    standard library (``builtins``).
    """
    if filename.startswith(repro_dir):
        return layer_of_module(filename[len(repro_dir):])
    if filename.startswith(ledger_dir):
        return "bench"
    if "numpy" in PurePath(filename).parts:
        return "numpy"
    return "builtins"


def layer_of_builtin(description: str) -> str:
    """Layer of a C function, given cProfile's description string
    (``<built-in method numpy.zeros>``, ``<method 'append' of 'list'
    objects>``)."""
    return "numpy" if "numpy" in description else "builtins"
