"""Boundary profiler: host time per layer, measured from outside.

Ranks are generator coroutines that the engine resumes millions of
times, so one span per call is out of the question.  The ledger records
one span per workload *cell* from the benchmark's side and, beneath the
run, aggregated call edges ``caller layer -> callee layer.function``.
:mod:`cProfile` supplies the raw per-code-object timings; code objects
are mapped to layers by file path (:mod:`layers`).

This is not a ``repro.trace.Tracer`` and installs no engine hook: the
simulated program cannot tell it is being observed, so the closed-form
fast path stays engaged and every simulated number must equal the
untraced run's.
"""

from __future__ import annotations

import cProfile
import time
from typing import Callable

from layers import LAYERS, layer_of_builtin, layer_of_path

__all__ = ["LayerProfile"]


class LayerProfile:
    """Self time, inbound calls and call edges per layer, summed over
    every :meth:`run` of one traced repeat."""

    def __init__(self, repro_dir: str, ledger_dir: str):
        self._dirs = (repro_dir, ledger_dir)
        self._known: dict[object, tuple[str, str]] = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls_in = dict.fromkeys(LAYERS, 0)
        #: (caller layer, "callee-layer.function") -> [calls, self_s, cum_s]
        self.edges: dict[tuple[str, str], list] = {}
        #: Host seconds spent inside :meth:`run` and not inside any
        #: profiled function (the profiler's own bookkeeping).
        self.unattributed_s = 0.0
        self.wall_s = 0.0

    def _resolve(self, code) -> tuple[str, str]:
        """(layer, "layer.function") of a cProfile code entry."""
        known = self._known.get(code)
        if known is None:
            if isinstance(code, str):       # a C function's description
                layer = layer_of_builtin(code)
                function = code.strip("<>")
            else:
                layer = layer_of_path(code.co_filename, *self._dirs)
                function = code.co_qualname
            known = self._known[code] = (layer, f"{layer}.{function}")
        return known

    def run(self, body: Callable[[], None]) -> dict[str, float]:
        """Run ``body`` under the profiler; returns its self time per
        layer (the cell span's breakdown) and folds it into the totals.
        """
        profile = cProfile.Profile()
        t0 = time.perf_counter()
        profile.enable()
        try:
            body()
        finally:
            profile.disable()
        wall = time.perf_counter() - t0
        cell = dict.fromkeys(LAYERS, 0.0)
        called: set = set()
        entries = profile.getstats()
        for entry in entries:
            layer, _ = self._resolve(entry.code)
            cell[layer] += entry.inlinetime
            for sub in entry.calls or ():
                callee_layer, callee = self._resolve(sub.code)
                called.add(sub.code)
                if callee_layer != layer:
                    self.calls_in[callee_layer] += sub.callcount
                edge = self.edges.setdefault((layer, callee), [0, 0.0, 0.0])
                edge[0] += sub.callcount
                edge[1] += sub.inlinetime
                edge[2] += sub.totaltime
        for entry in entries:
            # Frames entered from the benchmark itself have no caller
            # entry; they hang off the cell span.
            if entry.code not in called:
                _, callee = self._resolve(entry.code)
                edge = self.edges.setdefault(("cell", callee), [0, 0.0, 0.0])
                edge[0] += entry.callcount
                edge[1] += entry.inlinetime
                edge[2] += entry.totaltime
        for layer, seconds in cell.items():
            self.self_s[layer] += seconds
        self.wall_s += wall
        self.unattributed_s += max(0.0, wall - sum(cell.values()))
        return cell

    def edge_rows(self) -> list[dict]:
        """The call edges as JSON rows, heaviest self time first."""
        rows = [
            {"caller": caller, "callee": callee, "calls": calls,
             "self_s": self_s, "cum_s": cum_s}
            for (caller, callee), (calls, self_s, cum_s) in self.edges.items()
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows
