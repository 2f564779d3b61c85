"""Result containers and text rendering for the benchmark harness.

Every experiment produces :class:`Series` (x/y curves, one per figure
line) or :class:`Table` objects; ``render`` prints them the way the paper
reports them, and EXPERIMENTS.md records the paper-vs-measured values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .._units import fmt_size

__all__ = ["Series", "Table", "render_series", "render_table"]


@dataclass
class Series:
    """One labelled curve: x values (usually sizes in bytes) and y values."""

    label: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)
    x_unit: str = "bytes"
    y_unit: str = "MiB/s"

    def add(self, x: float, y: float) -> None:
        self.x.append(x)
        self.y.append(y)

    def at(self, x: float) -> float:
        """y value at exactly x (raises if absent)."""
        return self.y[self.x.index(x)]

    @property
    def peak(self) -> float:
        return max(self.y)


@dataclass
class Table:
    """A small report table (e.g. Table 2)."""

    title: str
    columns: list[str]
    rows: list[Sequence] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(values)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:9.2f}"
    return f"{value!s:>9}"


def render_table(table: Table) -> str:
    lines = [table.title, "-" * len(table.title)]
    lines.append(" | ".join(f"{c:>9}" for c in table.columns))
    for row in table.rows:
        lines.append(" | ".join(_fmt(v) for v in row))
    return "\n".join(lines)


def render_series(title: str, series: Iterable[Series], size_x: bool = True) -> str:
    """Render curves side by side over their (shared) x grid."""
    series = list(series)
    lines = [title, "-" * len(title)]
    xs = series[0].x
    header = ["x".rjust(10)] + [s.label.rjust(12) for s in series]
    lines.append(" | ".join(header))
    for i, x in enumerate(xs):
        label = fmt_size(int(x)) if size_x else f"{x:g}"
        cells = [label.rjust(10)]
        for s in series:
            cells.append(f"{s.y[i]:12.2f}" if i < len(s.y) else " " * 12)
        lines.append(" | ".join(cells))
    return "\n".join(lines)
