"""The metrics registry: every counter of the stack under one namespace.

PRs 1–3 grew ad-hoc counters wherever they were convenient — dicts on
:class:`~repro.mpi.pt2pt.engine.RankDevice` (``counters``, ``recovery``),
the :class:`~repro.mpi.transport.scheduler.TransferScheduler` chunk
``stats``, the fabric's ``counters``, the plan cache's hit/miss/build
tallies, the :class:`~repro.hardware.sci.faults.FaultPlan` injection log.
Each had its own reporting path (``Tracer.summary()`` text lines,
``Cluster.stats()``, hand-collected dicts in ``bench/smoke.py``).

A :class:`MetricsRegistry` is the single, machine-readable view over all
of them:

* **instruments** — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  objects registered under a flat dotted name (``transport.chunks``),
  mutated directly by whoever owns them;
* **collectors** — callables that *pull* current values out of the
  existing ad-hoc counter dicts at snapshot time, so the hot paths keep
  their plain ``dict[str, int]`` increments (zero new overhead) while the
  registry owns the namespace;
* **snapshot / diff / JSON export** — ``snapshot()`` returns one flat
  ``{name: number}`` dict in registration order; ``diff()`` subtracts two
  snapshots; ``to_json()`` serializes a snapshot.

Names are dotted lowercase (``^[a-z0-9_]+(\\.[a-z0-9_]+)*$``) and the
namespace is collision-checked: registering the same name twice — whether
as an instrument or via a collector — raises :class:`MetricError`.  The
name tables of ``docs/OBSERVABILITY.md`` are generated from the code and
checked by ``tools/docs_check.py``.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instruments",
    "MetricError",
    "MetricsRegistry",
]

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

#: Snapshot keys a Histogram expands into (appended to its name).
_HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "mean",
                     "p50", "p95", "p99")

#: The quantiles a Histogram exports (snapshot key suffix -> q).
_HISTOGRAM_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


class MetricError(ValueError):
    """Invalid metric name, namespace collision, or bad instrument use."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(
            f"invalid metric name {name!r} (want dotted lowercase, e.g. "
            "'transport.chunks')"
        )
    return name


class _Instrument:
    """Common identity of every registered instrument."""

    kind = "instrument"

    def __init__(self, name: str, unit: str = "", owner: str = ""):
        self.name = _check_name(name)
        #: Unit string, reporting-only (``"us"``, ``"bytes"``, ``"1"``).
        self.unit = unit
        #: Owning module, reporting-only (``"repro.mpi.transport"``).
        self.owner = owner

    def sample(self) -> dict[str, float]:
        raise NotImplementedError

    def sample_names(self) -> tuple[str, ...]:
        """The snapshot keys this instrument contributes."""
        return (self.name,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}={self.sample()}>"


class Counter(_Instrument):
    """A monotonically increasing count (events, bytes, retries)."""

    kind = "counter"

    def __init__(self, name: str, unit: str = "", owner: str = ""):
        super().__init__(name, unit, owner)
        self._value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise MetricError(f"counter {self.name} cannot decrease (inc {n})")
        self._value += n

    @property
    def value(self) -> int | float:
        return self._value

    def sample(self) -> dict[str, float]:
        return {self.name: self._value}


class Gauge(_Instrument):
    """A point-in-time value that may move both ways (sizes, rates)."""

    kind = "gauge"

    def __init__(self, name: str, unit: str = "", owner: str = ""):
        super().__init__(name, unit, owner)
        self._value: float = 0.0

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        return self._value

    def sample(self) -> dict[str, float]:
        return {self.name: self._value}


class Histogram(_Instrument):
    """Running distribution summary of observed values.

    Snapshots expand into ``<name>.count`` / ``.sum`` / ``.min`` / ``.max``
    / ``.mean`` / ``.p50`` / ``.p95`` / ``.p99`` (all 0 before the first
    observation).  Quantiles are *exact*: every observation is retained
    and :meth:`percentile` interpolates linearly between order statistics
    (numpy's default), so a deterministic run yields bit-identical
    quantiles — the property the ``repro-svc`` latency report and the CI
    baselines rely on.
    """

    kind = "histogram"

    def __init__(self, name: str, unit: str = "", owner: str = ""):
        super().__init__(name, unit, owner)
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._values: list[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``) of everything observed.

        Linear interpolation between the two nearest order statistics;
        0.0 before the first observation.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile {q} outside [0, 1]")
        if not self._values:
            return 0.0
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        values = self._values
        pos = q * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        frac = pos - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac

    def sample_names(self) -> tuple[str, ...]:
        return tuple(f"{self.name}.{field}" for field in _HISTOGRAM_FIELDS)

    def sample(self) -> dict[str, float]:
        out = {
            f"{self.name}.count": self.count,
            f"{self.name}.sum": self.total,
            f"{self.name}.min": self._min if self._min is not None else 0.0,
            f"{self.name}.max": self._max if self._max is not None else 0.0,
            f"{self.name}.mean": self.total / self.count if self.count else 0.0,
        }
        for field, q in _HISTOGRAM_QUANTILES:
            out[f"{self.name}.{field}"] = self.percentile(q)
        return out


class Instruments:
    """One subsystem's counters and histograms under a common prefix.

    A subclass is its name tuples plus its domain verbs: it sets
    ``prefix`` / ``owner`` / ``counter_names`` / ``histogram_names`` and
    adds methods like ``observe`` or ``payload`` over ``self.counters``
    and ``self.histograms`` (both keyed by the *unprefixed* name).
    :meth:`registered` creates the family inside a registry as
    ``<prefix>.<name>``; :meth:`standalone` makes the same instruments
    free-floating, for unit tests without a cluster registry.
    """

    prefix = ""
    owner = ""
    counter_names: tuple[str, ...] = ()
    histogram_names: tuple[str, ...] = ()
    #: Reporting unit of the counters that do not count events ("1").
    counter_units: dict[str, str] = {}

    def __init__(self, counters: dict[str, Counter],
                 histograms: dict[str, Histogram]):
        self.counters = counters
        self.histograms = histograms

    @classmethod
    def registered(cls, registry: "MetricsRegistry"):
        return cls(
            {name: registry.counter(f"{cls.prefix}.{name}",
                                    unit=cls.counter_units.get(name, "1"),
                                    owner=cls.owner)
             for name in cls.counter_names},
            {name: registry.histogram(f"{cls.prefix}.{name}", unit="us",
                                      owner=cls.owner)
             for name in cls.histogram_names},
        )

    @classmethod
    def standalone(cls):
        return cls(
            {name: Counter(f"{cls.prefix}.{name}")
             for name in cls.counter_names},
            {name: Histogram(f"{cls.prefix}.{name}")
             for name in cls.histogram_names},
        )


class MetricsRegistry:
    """A flat, collision-checked namespace of instruments and collectors."""

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        #: Registered pull-collectors: (declared names, callable).
        self._collectors: list[tuple[tuple[str, ...], Callable[[], dict]]] = []
        self._claimed: set[str] = set()

    # -- registration ---------------------------------------------------------

    def _reserve(self, names: Iterable[str]) -> None:
        for name in names:
            if name in self._claimed:
                raise MetricError(f"metric name collision: {name!r}")
        self._claimed.update(names)

    def _register(self, instrument: _Instrument) -> _Instrument:
        self._reserve(instrument.sample_names())
        self._instruments[instrument.name] = instrument
        return instrument

    def counter(self, name: str, unit: str = "", owner: str = "") -> Counter:
        """Create and register a :class:`Counter`."""
        return self._register(Counter(name, unit, owner))  # type: ignore[return-value]

    def gauge(self, name: str, unit: str = "", owner: str = "") -> Gauge:
        """Create and register a :class:`Gauge`."""
        return self._register(Gauge(name, unit, owner))  # type: ignore[return-value]

    def histogram(self, name: str, unit: str = "", owner: str = "") -> Histogram:
        """Create and register a :class:`Histogram`."""
        return self._register(Histogram(name, unit, owner))  # type: ignore[return-value]

    def register_collector(self, names: Iterable[str],
                           collect: Callable[[], dict]) -> None:
        """Register a pull-collector producing exactly ``names`` at snapshot.

        Collectors are how the registry absorbs the ad-hoc counter dicts
        of the existing subsystems without touching their hot-path
        increments: ``collect()`` reads the live values on demand.
        """
        declared = tuple(_check_name(n) for n in names)
        self._reserve(declared)
        self._collectors.append((declared, collect))

    # -- introspection --------------------------------------------------------

    def names(self) -> list[str]:
        """Every snapshot key, in registration order."""
        out: list[str] = []
        for instrument in self._instruments.values():
            out.extend(instrument.sample_names())
        for declared, _ in self._collectors:
            out.extend(declared)
        return out

    def get(self, name: str) -> _Instrument:
        try:
            return self._instruments[name]
        except KeyError:
            raise MetricError(f"no instrument named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._claimed

    def __len__(self) -> int:
        return len(self.names())

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """One flat ``{name: value}`` dict, in registration order.

        Collector output is validated against the declared names — a
        collector drifting out of sync with its declaration is a bug
        worth failing loudly on.
        """
        out: dict[str, float] = {}
        for instrument in self._instruments.values():
            out.update(instrument.sample())
        for declared, collect in self._collectors:
            values = collect()
            if set(values) != set(declared):
                raise MetricError(
                    f"collector declared {sorted(declared)} but produced "
                    f"{sorted(values)}"
                )
            for name in declared:
                out[name] = values[name]
        return out

    @staticmethod
    def diff(before: dict[str, float],
             after: dict[str, float]) -> dict[str, float]:
        """Per-name ``after - before`` for every name present in both."""
        return {
            name: after[name] - before[name]
            for name in after
            if name in before
        }

    def to_json(self, indent: int = 2) -> str:
        """The current snapshot as a JSON object string."""
        return json.dumps(self.snapshot(), indent=indent)
