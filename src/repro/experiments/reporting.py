"""Plain-text table/series formatting for the benchmark harness output."""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned plain-text table (the bench harness prints these).

    Rows shorter than the header are padded with empty cells; rows longer
    than the header are rejected (silently dropping data would corrupt a
    reproduction table).
    """
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    for index, row in enumerate(materialized):
        if len(row) > len(headers):
            raise ValueError(
                f"row {index} has {len(row)} cells but only "
                f"{len(headers)} headers: {row!r}"
            )
        row.extend([""] * (len(headers) - len(row)))
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_summary_table(
    summaries: Mapping[str, "object"],
    title: str = "",
) -> str:
    """Render a Tables 8/9-style min/max/gmean block (values in percent)."""
    headers = [""] + list(summaries.keys())
    rows = []
    for metric in ("minimum", "maximum", "gmean"):
        label = {"minimum": "min", "maximum": "max", "gmean": "gmean"}[metric]
        row = [label]
        for summary in summaries.values():
            row.append(f"{getattr(summary, metric):.1f}")
        rows.append(row)
    return format_table(headers, rows, title)
