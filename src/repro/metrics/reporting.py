"""Plain-text result tables for the paper artefacts.

Every ``benchmarks/bench_*.py`` prints its reproduced table or figure series
through :class:`ResultTable` so the output is uniform and diffable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..errors import CraqrError


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a list of rows as a fixed-width text table."""
    if not headers:
        raise CraqrError("a table needs at least one column")
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise CraqrError("every row must have one cell per header")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


@dataclass
class ResultTable:
    """A named table accumulated row by row."""

    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        """Append one row (must match the header count)."""
        if len(cells) != len(self.headers):
            raise CraqrError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append(list(cells))

    def render(self) -> str:
        """The table as fixed-width text, preceded by its title."""
        return f"== {self.title} ==\n" + format_table(self.headers, self.rows)

    def print(self) -> None:
        """Print the rendered table (used by benches)."""
        print("\n" + self.render())

    def column(self, name: str) -> List[object]:
        """All values of one column."""
        try:
            index = self.headers.index(name)
        except ValueError:
            raise CraqrError(f"no column named '{name}'") from None
        return [row[index] for row in self.rows]
