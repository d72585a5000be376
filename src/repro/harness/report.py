"""ASCII table / series rendering shared by the experiment modules."""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render a fixed-width ASCII table."""
    columns = len(headers)
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index in range(columns):
            widths[index] = max(widths[index], len(row[index]))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(row[i].rjust(widths[i]) if i else
                               row[i].ljust(widths[i])
                               for i in range(columns)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
