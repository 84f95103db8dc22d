"""Formatting helpers: uniform ASCII tables and series blocks for the CLI and
the examples."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np


def format_table(rows: Sequence[Mapping], columns: Optional[Sequence[str]] = None,
                 float_format: str = "{:.4f}", title: Optional[str] = None) -> str:
    """Render a list of dict rows as an aligned ASCII table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float) or isinstance(value, np.floating):
            return float_format.format(float(value))
        return str(value)

    rendered = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(width) for col, width in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_series(series: Mapping[str, Sequence], title: Optional[str] = None,
                  float_format: str = "{:.4f}") -> str:
    """Render named parallel series (one column per key)."""
    keys = list(series.keys())
    if not keys:
        return "(empty)"
    length = len(series[keys[0]])
    rows = []
    for index in range(length):
        rows.append({key: series[key][index] for key in keys})
    return format_table(rows, columns=keys, float_format=float_format, title=title)
