"""Plain-text table rendering for benchmark reports.

The benchmark harnesses print the same rows the paper's tables/figures
report; these helpers keep that output aligned and copy-pasteable into
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["format_table"]


def _stringify(rows: Iterable[Sequence[object]]) -> List[List[str]]:
    out: List[List[str]] = []
    for row in rows:
        out.append(["" if cell is None else str(cell) for cell in row])
    return out


def _column_widths(header: Sequence[str], rows: List[List[str]]) -> List[int]:
    widths = [len(h) for h in header]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row has {len(row)} cells but header has {len(header)}: {row!r}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    return widths


def format_table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table.

    >>> print(format_table(["a", "b"], [[1, 2.5]]))
    a | b
    --+----
    1 | 2.5
    """
    str_rows = _stringify(rows)
    widths = _column_widths(list(header), str_rows)
    head = " | ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()
    sep = "-+-".join("-" * w for w in widths)
    lines = [head, sep]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
