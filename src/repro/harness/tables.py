"""Tabular experiment results, printed in the shape the paper reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class ExperimentResult:
    """Rows of measurements for one figure/table."""

    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add(self, **measurements) -> None:
        self.rows.append(measurements)

    def columns(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        return seen

    def series(self, x: str, y: str, by: str) -> Dict[object, List[tuple]]:
        """Group rows into (x, y) series keyed by the ``by`` column —
        the same series a paper figure plots."""
        grouped: Dict[object, List[tuple]] = {}
        for row in self.rows:
            grouped.setdefault(row.get(by), []).append(
                (row.get(x), row.get(y))
            )
        for points in grouped.values():
            points.sort(key=lambda p: (p[0] is None, p[0]))
        return grouped

    def format_table(self, float_digits: int = 4) -> str:
        """Aligned plain-text table."""
        columns = self.columns()
        rendered: List[List[str]] = [columns]
        for row in self.rows:
            cells = []
            for column in columns:
                value = row.get(column, "")
                if isinstance(value, float):
                    cells.append("{:.{}f}".format(value, float_digits))
                else:
                    cells.append(str(value))
            rendered.append(cells)
        widths = [
            max(len(line[i]) for line in rendered) for i in range(len(columns))
        ]
        lines = [self.title]
        if self.notes:
            lines.append(self.notes)
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(rendered[0]))
        )
        lines.append("  ".join("-" * w for w in widths))
        for cells in rendered[1:]:
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
            )
        return "\n".join(lines)

    def print(self) -> None:
        print(self.format_table())
        print()
