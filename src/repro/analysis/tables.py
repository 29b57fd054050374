"""Plain-text table formatting for benchmark output."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def _stringify(value, float_format: str = "{:.4g}") -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return float_format.format(value)
    return str(value)


def format_table(
    rows: Sequence[Dict],
    columns: Optional[Sequence[str]] = None,
    *,
    float_format: str = "{:.4g}",
    title: Optional[str] = None,
) -> str:
    """Fixed-width text table from a list of row dictionaries.

    Parameters
    ----------
    rows:
        One dictionary per row; missing keys render as empty cells.
    columns:
        Column order (default: keys of the first row, in insertion order).
    float_format:
        Format spec applied to float cells.
    title:
        Optional heading printed above the table.
    """
    if not rows:
        return title or ""
    cols = list(columns) if columns is not None else list(rows[0].keys())
    table: List[List[str]] = [[str(c) for c in cols]]
    for row in rows:
        table.append([_stringify(row.get(c, ""), float_format) for c in cols])
    widths = [max(len(r[i]) for r in table) for i in range(len(cols))]
    lines = []
    if title:
        lines.append(title)
    header, *body = table
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


__all__ = ["format_table"]
