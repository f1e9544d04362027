"""Log-scale ASCII line charts for the figure reproductions.

The offline environment has no plotting stack, so Figures 5.1-5.3 are
regenerated as terminal charts plus the underlying numeric series (the
series, in each experiment's ``ExperimentResult.data``, are the record;
the chart is for eyeballing the shape — monotone decrease with rounds,
the r*l >= k knee, etc.).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

__all__ = ["render_chart"]

#: Glyphs assigned to series in declaration order.
_MARKERS = "ox+*#@%&"


def render_chart(
    title: str,
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    width: int = 64,
    height: int = 16,
    log_y: bool = True,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render named series over shared x values as an ASCII chart.

    Parameters
    ----------
    x_values:
        Shared x coordinates (plotted with even spacing, labeled at the
        ends — adequate for "number of rounds" axes).
    series:
        Mapping of label -> y values (same length as ``x_values``;
        non-finite/non-positive values are skipped under ``log_y``).
    log_y:
        Plot ``log10(y)`` — the scale every figure in the paper uses.
    """
    if not series:
        raise ValueError("series must be non-empty")
    n = len(x_values)
    for label, ys in series.items():
        if len(ys) != n:
            raise ValueError(
                f"series {label!r} has {len(ys)} points, expected {n}"
            )

    def transform(y: float) -> float | None:
        if y is None or not math.isfinite(y):
            return None
        if log_y:
            if y <= 0:
                return None
            return math.log10(y)
        return y

    points = {
        label: [transform(y) for y in ys] for label, ys in series.items()
    }
    finite = [v for ys in points.values() for v in ys if v is not None]
    if not finite:
        raise ValueError("no plottable values")
    lo, hi = min(finite), max(finite)
    if hi - lo < 1e-12:
        hi = lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for (label, ys), marker in zip(points.items(), _MARKERS):
        for i, v in enumerate(ys):
            if v is None:
                continue
            col = round(i * (width - 1) / max(1, n - 1))
            row = round((hi - v) / (hi - lo) * (height - 1))
            grid[row][col] = marker

    def y_tick(row: int) -> str:
        v = hi - row * (hi - lo) / (height - 1)
        return f"1e{v:+.1f}" if log_y else f"{v:.3g}"

    lines = [title]
    for row in range(height):
        tick = y_tick(row) if row % max(1, height // 4) == 0 else ""
        lines.append(f"{tick:>8} |{''.join(grid[row])}")
    lines.append(" " * 9 + "+" + "-" * width)
    x_lo, x_hi = x_values[0], x_values[-1]
    axis = f"{x_lo:g}".ljust(width - 8) + f"{x_hi:g}"
    lines.append(" " * 10 + axis + f"   ({x_label})")
    legend = "   ".join(
        f"{marker}={label}" for (label, _), marker in zip(series.items(), _MARKERS)
    )
    lines.append(f"{'':9}{y_label} (log10)  {legend}" if log_y else f"{'':9}{legend}")
    return "\n".join(lines)
