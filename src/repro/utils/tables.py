"""Plain-text table rendering used by the analysis layer and the benchmarks.

The benchmark harness prints tables with the same rows/columns as the paper's
Tables I-III; this module provides a tiny, dependency-free renderer so the
output is readable both in a terminal and in ``bench_output.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ConfigurationError


def format_float(value: float, digits: int = 2) -> str:
    """Format a float with a fixed number of decimals, stripping NaN/inf noise."""
    if value != value:  # NaN
        return "n/a"
    if value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    return f"{value:.{digits}f}"


def format_ratio_cell(throughput_mbps: float, area_mm2: float, digits: int = 2) -> str:
    """Format a ``throughput/area`` cell in the style of the paper's Table I."""
    return f"{format_float(throughput_mbps, digits)}/{format_float(area_mm2, digits)}"


@dataclass
class Table:
    """Minimal monospace table: a title, a header row and data rows."""

    title: str
    columns: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, cells: Iterable[object]) -> None:
        """Append a row; cells are converted to ``str`` and must match the header."""
        row = [str(cell) for cell in cells]
        if len(row) != len(self.columns):
            raise ConfigurationError(
                f"row has {len(row)} cells but the table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def _widths(self) -> list[int]:
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for idx, cell in enumerate(row):
                widths[idx] = max(widths[idx], len(cell))
        return widths

    def render(self) -> str:
        """Render the table as a monospace string with a rule under the header."""
        widths = self._widths()
        header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(self.columns))
        rule = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * max(len(self.title), len(header)), header, rule]
        for row in self.rows:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
