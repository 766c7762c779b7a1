"""Table/series formatting for benchmarks and EXPERIMENTS.md.

Benchmarks print the same rows/series the paper reports; these helpers
keep that output consistent and machine-greppable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class Table:
    """A fixed-width text table with a title."""

    title: str
    columns: list[str]
    rows: list[list[object]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.2f}"
            return str(value)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(row[i]) for row in cells))
            if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)


@dataclass
class Series:
    """A named (x, y) series — one line of a paper figure."""

    name: str
    points: list[tuple[object, float]] = field(default_factory=list)

    def add(self, x: object, y: float) -> None:
        self.points.append((x, y))

    def ys(self) -> list[float]:
        return [y for _, y in self.points]


def render_figure(title: str, x_label: str, series: Sequence[Series]) -> str:
    """Render figure series as aligned columns (x, then one col/series)."""
    lines = [title, "=" * len(title)]
    xs = [x for x, _ in series[0].points] if series else []
    header = [x_label] + [s.name for s in series]
    widths = [max(len(h), 10) for h in header]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for i, x in enumerate(xs):
        row = [str(x)]
        for s in series:
            row.append(f"{s.points[i][1]:.2f}" if i < len(s.points) else "-")
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def percentage_overhead(value: float, baseline: float) -> float:
    """(value / baseline - 1) × 100, guarded against zero baselines."""
    if baseline <= 0:
        return float("inf")
    return (value / baseline - 1.0) * 100.0
