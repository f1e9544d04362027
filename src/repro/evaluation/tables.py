"""Fixed-width table rendering for experiment reports.

Keeps the benchmark output legible in a terminal and diff-able between
runs (``python -m repro run all --out results.txt``): every experiment
prints exactly the rows/columns of its paper counterpart, with a "paper"
column next to "measured" where that is meaningful.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["render_table", "format_number"]


def format_number(value: object, *, sig: int = 3) -> str:
    """Human-friendly numeric formatting: ``sig`` significant digits.

    Integers print exactly; large/small magnitudes switch to scientific
    notation like the paper's tables do.
    """
    if value is None:
        return "—"
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    v = float(value)
    if v != v:  # NaN
        return "—"
    if v == 0:
        return "0"
    if abs(v) >= 1e6 or abs(v) < 1e-3:
        return f"{v:.{sig - 1}e}"
    if abs(v) >= 100:
        return f"{v:,.0f}"
    return f"{v:.{sig}g}"


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    note: str | None = None,
) -> str:
    """Render a titled fixed-width table; first column left-aligned."""
    cells = [[format_number(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))

    def fmt_row(items: Sequence[str]) -> str:
        parts = []
        for j, item in enumerate(items):
            parts.append(item.ljust(widths[j]) if j == 0 else item.rjust(widths[j]))
        return "  ".join(parts)

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [title, rule, fmt_row(list(headers)), rule]
    lines.extend(fmt_row(row) for row in cells)
    lines.append(rule)
    if note:
        lines.append(note)
    return "\n".join(lines)
