"""The scenario framework: seeded end-to-end workloads as regression oracles.

The paper's value claim is end-to-end — transparent RMA pays off in real
application patterns, not microbenchmarks alone — and studies of MPI
derived datatypes show that datatype/RMA optimizations routinely *invert*
between microbenchmark and application context.  This package is the
regression net for that claim: four application scenarios (data-parallel
training, graph analytics over OSC windows, an RMA work-stealing task
pool, and a multi-tenant KV + halo co-location run) that exercise the
transport, fault-recovery, observability, and service layers *together*.

Every scenario is specified by a :class:`ScenarioParams` (seed, rank and
size parameters, faults on/off) and produces a structured JSON report
through one driver, :func:`run_scenario`:

* **deterministic** — the simulation is a DES, every random draw is
  seeded, and the plan cache is reset per run, so a given
  (scenario, params) pair yields a *byte-identical* report, faults on or
  off.  CI's scenario-matrix job re-runs cells and diffs the bytes.
* **canonically ordered** — the report is passed through
  :func:`canonical`, which recursively sorts every mapping, so
  ``json.dumps(report)`` equals ``json.dumps(report, sort_keys=True)``
  and no dict/set iteration order can leak into the bytes.
* **self-verifying** — each scenario checks its own application-level
  oracle (``report["verified"]``) and the framework checks cross-layer
  invariants tying the application's byte accounting to the fabric and
  recovery counters (``report["invariants"]``), so scenarios double as
  correctness oracles, not just golden files.

Observability: the driver attaches a tracer (Perfetto-exportable via
``repro.obs.timeline``) and registers the ``scenario.*`` instruments
into the cluster's metrics registry; scenarios mark their iteration
boundaries with ``scenario.step`` spans.  All names are listed in the
generated tables of ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

from ..cluster import Cluster
from ..hardware.sci.faults import FaultPlan
from ..hardware.sci.topology import Topology
from ..mpi.flatten import reset_plan_cache
from ..obs.metrics import Instruments
from ..obs.trace import Tracer, attach_tracer

__all__ = [
    "SCENARIO_COUNTERS",
    "SCENARIO_HISTOGRAMS",
    "Scenario",
    "ScenarioError",
    "ScenarioInstruments",
    "ScenarioParams",
    "ScenarioRun",
    "canonical",
    "check_invariants",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "scenario_fault_plan",
    "scenario_names",
]


class ScenarioError(ValueError):
    """Unknown scenario name or invalid scenario parameters."""


@dataclass(frozen=True)
class ScenarioParams:
    """Everything that determines one scenario cell, JSON-friendly.

    ``ranks`` / ``steps`` of 0 mean "the scenario's default"; ``scale``
    multiplies the scenario's problem size (vertices, tasks, gradient
    blocks, grid cells) without changing its shape.
    """

    seed: int = 1
    ranks: int = 0
    steps: int = 0
    scale: float = 1.0
    faults: bool = False

    def __post_init__(self):
        if self.ranks < 0 or self.steps < 0:
            raise ScenarioError("ranks and steps must be >= 0 (0 = default)")
        if not 0.0 < self.scale <= 64.0:
            raise ScenarioError(f"scale {self.scale} outside (0, 64]")

    def describe(self) -> dict:
        return {
            "faults": self.faults,
            "ranks": self.ranks,
            "scale": self.scale,
            "seed": self.seed,
            "steps": self.steps,
        }


#: ``scenario.*`` Counter names the driver registers (prefix appended).
SCENARIO_COUNTERS = ("steps", "ops", "payload_bytes")

#: ``scenario.*`` Histogram names (each expands to eight derived keys).
SCENARIO_HISTOGRAMS = ("step_time_us",)


class ScenarioInstruments(Instruments):
    """The ``scenario.*`` instruments every scenario program feeds.

    * ``scenario.steps`` — application iterations completed (training
      steps, BFS rounds, halo sweeps, pool drains);
    * ``scenario.ops`` — application-level operations (gradient
      reductions, edge relaxations, tasks executed, KV ops);
    * ``scenario.payload_bytes`` — application payload bytes *injected
      into the fabric* (remote transfers only; local window accesses
      never cross the wire and are not counted);
    * ``scenario.step_time_us`` — per-step wall time on the step-marking
      rank, as a histogram.
    """

    prefix = "scenario"
    owner = "repro.scenarios"
    counter_names = SCENARIO_COUNTERS
    histogram_names = SCENARIO_HISTOGRAMS
    counter_units = {"payload_bytes": "B"}

    def ops(self, n: int = 1) -> None:
        self.counters["ops"].inc(n)

    def payload(self, nbytes: int) -> None:
        self.counters["payload_bytes"].inc(nbytes)

    @contextmanager
    def step(self, ctx, index: int, record: bool = True):
        """Mark one application step: a ``scenario.step`` span on this
        rank's track, plus (when ``record``) the steps counter and the
        step-time histogram — pass ``record=True`` on exactly one rank
        per step so the counters stay exact."""
        device = ctx.comm.device
        t0 = ctx.now
        device._trace("scenario.step.begin", step=index)
        try:
            yield
        finally:
            device._trace("scenario.step.end", step=index)
            if record:
                self.counters["steps"].inc()
                self.histograms["step_time_us"].observe(ctx.now - t0)


class Scenario:
    """One end-to-end application workload.

    Subclasses set the class attributes and implement :meth:`resolve`
    (params -> concrete sizing dict, reported verbatim) and :meth:`run`
    (drive the cluster, return the scenario-specific ``app`` section —
    which must contain a boolean ``"verified"`` application oracle).
    """

    #: Registry key, CLI name, and report["scenario"].
    name: str = ""
    #: One-line description (CLI listing and docs).
    description: str = ""
    default_ranks: int = 4
    default_steps: int = 1
    #: The smoke-gauge name this scenario feeds (see repro.bench.smoke).
    headline_metric: str = ""

    def n_ranks(self, params: ScenarioParams) -> int:
        return params.ranks or self.default_ranks

    def n_steps(self, params: ScenarioParams) -> int:
        return params.steps or self.default_steps

    def topology(self, params: ScenarioParams) -> Optional[Topology]:
        """The fabric topology of this cell (None = the default ring).

        Scenarios that pin tenants to ringlets or exercise switched
        fabrics override this; the driver hands the instance straight to
        :class:`~repro.cluster.Cluster`.  Whatever shapes the topology
        (ringlet counts, switch capacity) must be derived from ``params``
        only, so the cell stays byte-deterministic."""
        return None

    def fault_plan(self, params: ScenarioParams) -> FaultPlan:
        """The faulty cell's plan (default: the canonical matrix plan).

        Scenarios whose oracle needs a specific fault to land inside the
        workload's access budget (e.g. the segment revocation driving the
        QoS reservation ladder) override this; anything it derives must
        come from ``params`` only, keeping the cell byte-deterministic."""
        return scenario_fault_plan(self.name, params.seed)

    def resolve(self, params: ScenarioParams) -> dict:
        """Concrete problem sizing for ``params`` (JSON-ready)."""
        raise NotImplementedError

    def run(self, cluster: Cluster, params: ScenarioParams,
            inst: ScenarioInstruments) -> dict:
        """Drive ``cluster``; return the ``app`` report section."""
        raise NotImplementedError

    def headline_value(self, app: dict, snapshot: dict,
                       elapsed_us: float) -> float:
        """The scenario's headline metric value (fed to bench smoke)."""
        raise NotImplementedError


# -- registry ------------------------------------------------------------------

_REGISTRY: dict[str, type[Scenario]] = {}


def register_scenario(cls: type[Scenario]) -> type[Scenario]:
    """Class decorator: add a Scenario subclass to the matrix."""
    if not cls.name:
        raise ScenarioError(f"{cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ScenarioError(f"duplicate scenario name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def scenario_names() -> list[str]:
    """Every registered scenario name, sorted."""
    return sorted(_REGISTRY)


def get_scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r} (have: {', '.join(scenario_names())})"
        ) from None


def scenario_fault_plan(name: str, seed: int) -> FaultPlan:
    """The canonical lively-but-recoverable fault plan of a cell.

    Seeded from (scenario, seed) via crc32 — stable across processes
    (``hash()`` is salted and must never leak into a report).
    """
    return FaultPlan(
        seed=seed * 10007 + zlib.crc32(name.encode()) % 9973,
        transient_rate=0.05, torn_rate=0.05, stall_rate=0.02,
        stall_time=300.0, unmap_after=400,
    )


# -- canonical report ordering -------------------------------------------------


def canonical(obj):
    """Recursively key-sort every mapping (and the lists inside it).

    Returns an equal structure whose dict *insertion* order is sorted
    key order at every level, so a plain ``json.dumps`` without
    ``sort_keys`` is already canonical — the property the byte-diff
    determinism checks (tests and CI) assert.  List element order is
    preserved: lists must be deterministically ordered at assembly
    (sort anything that came from set/dict iteration).
    """
    if isinstance(obj, dict):
        out = {}
        for key in sorted(obj, key=str):
            out[key] = canonical(obj[key])
        return out
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, set):  # a set has no stable order: force one
        return sorted(obj)
    return obj


# -- cross-layer invariants ----------------------------------------------------


def check_invariants(snapshot: dict, faults_on: bool) -> dict:
    """Cross-layer accounting checks tying the scenario's application
    traffic to the fabric and recovery layers.

    Each check returns ``{"ok": bool, ...evidence}``; the report carries
    all of them so a failure is self-explaining.  These are *oracles*:
    they must hold for every scenario cell, clean or faulty.

    * ``fault_ledger`` — the fault plan's total equals the sum of its
      per-kind counters (the ledger cannot double- or under-count).
    * ``clean_run_is_clean`` — with no fault plan installed, zero faults
      were injected and the recovery state machine never fired.
    * ``payload_conservation`` — every application payload byte the
      scenario injected crossed the fabric at least once:
      ``fabric.bytes_written + fabric.bytes_read + fabric.bytes_torn >=
      scenario.payload_bytes``.  Lost transfers are retransmitted whole
      (and recounted), torn transfers keep their delivered prefix and
      resume — the prefix lands in ``fabric.bytes_torn``.  Delivered
      bytes below injected bytes means bytes were silently dropped.
    * ``recovery_covers_faults`` — every fault that surfaced to software
      (``fabric.faults``) was answered by at least one recovery action
      (retry, resume, timeout re-wait, remap, fallback, or abort).
    """
    recovery_actions = (
        snapshot["recovery.retries"] + snapshot["recovery.resumes"]
        + snapshot["recovery.timeouts"] + snapshot["recovery.remaps"]
        + snapshot["recovery.fallbacks"] + snapshot["recovery.aborts"]
    )
    kind_sum = (snapshot["faults.transient"] + snapshot["faults.torn"]
                + snapshot["faults.unmap"] + snapshot["faults.stall"])
    wire_bytes = (snapshot["fabric.bytes_written"]
                  + snapshot["fabric.bytes_read"]
                  + snapshot["fabric.bytes_torn"])
    payload = snapshot["scenario.payload_bytes"]

    checks = {
        "fault_ledger": {
            "ok": snapshot["faults.injected"] == kind_sum,
            "injected": snapshot["faults.injected"],
            "kind_sum": kind_sum,
        },
        "clean_run_is_clean": {
            "ok": faults_on or (snapshot["faults.injected"] == 0
                                and snapshot["fabric.faults"] == 0
                                and recovery_actions == 0),
            "faults_injected": snapshot["faults.injected"],
            "recovery_actions": recovery_actions,
        },
        "payload_conservation": {
            "ok": wire_bytes >= payload > 0,
            "payload_bytes": payload,
            "wire_bytes": wire_bytes,
        },
        "recovery_covers_faults": {
            "ok": recovery_actions >= snapshot["fabric.faults"],
            "surfaced_faults": snapshot["fabric.faults"],
            "recovery_actions": recovery_actions,
        },
    }
    return checks


# -- the driver ----------------------------------------------------------------


@dataclass
class ScenarioRun:
    """One executed cell: the canonical report plus the live artifacts."""

    report: dict
    cluster: Cluster
    tracer: Tracer


def run_scenario(name: str, params: Optional[ScenarioParams] = None,
                 **overrides) -> ScenarioRun:
    """Run one scenario cell; returns the :class:`ScenarioRun`.

    ``overrides`` replace fields of ``params`` (or of a default
    :class:`ScenarioParams`).  The plan cache is reset first, so a cell's
    report never depends on what ran before it in the same process —
    matrix cells are order-independent, and two runs of the same cell
    are byte-identical.
    """
    scenario = get_scenario(name)
    params = replace(params or ScenarioParams(), **overrides)
    reset_plan_cache()

    faults = scenario.fault_plan(params) if params.faults else None
    cluster = Cluster(n_nodes=scenario.n_ranks(params), faults=faults,
                      topology=scenario.topology(params))
    tracer = attach_tracer(cluster)
    registry = cluster.metrics
    inst = ScenarioInstruments.registered(registry)

    app = scenario.run(cluster, params, inst)
    if "verified" not in app:
        raise ScenarioError(f"scenario {name!r} returned no 'verified' oracle")

    snapshot = registry.snapshot()
    invariants = check_invariants(snapshot, faults_on=params.faults)
    elapsed = snapshot["sim.time_us"]
    steps = snapshot["scenario.steps"]
    report = canonical({
        "scenario": name,
        "params": {**params.describe(), **scenario.resolve(params)},
        "app": app,
        "elapsed_us": elapsed,
        "headline": {
            scenario.headline_metric: scenario.headline_value(
                app, snapshot, elapsed),
        },
        "scenario_counters": {
            "steps": steps,
            "ops": snapshot["scenario.ops"],
            "payload_bytes": snapshot["scenario.payload_bytes"],
            "step_time_us_p95": snapshot["scenario.step_time_us.p95"],
        },
        "faults": {
            "enabled": params.faults,
            "injected": snapshot["faults.injected"],
            "recovery_retries": snapshot["recovery.retries"],
            "recovery_fallbacks": snapshot["recovery.fallbacks"],
        },
        "invariants": invariants,
        "invariants_ok": all(c["ok"] for c in invariants.values()),
        "verified": bool(app["verified"]),
        "metrics": snapshot,
    })
    return ScenarioRun(report=report, cluster=cluster, tracer=tracer)
