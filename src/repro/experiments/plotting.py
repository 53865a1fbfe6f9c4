"""Terminal plotting for the experiment harnesses.

The paper's figures are line/bar charts; for a dependency-free repository
the runner renders them as ASCII charts alongside the raw tables, so the
shapes (crossovers, saturation, turning points) are visible without
leaving the terminal.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["ascii_line_chart"]

_MARKERS = "*o+x#@%&"


def ascii_line_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 70,
    height: int = 16,
    title: str | None = None,
    y_label: str = "",
) -> str:
    """Plot one or more (x, y) series on a shared character grid.

    Each series gets its own marker; the legend maps markers to names.
    Points are nearest-cell rasterized -- enough to see the paper's shapes.
    """
    if width < 10 or height < 4:
        raise ValueError("chart needs width >= 10 and height >= 4")
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, (name, pts) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        for x, y in pts:
            col = int(round((x - x_lo) / x_span * (width - 1)))
            row = height - 1 - int(round((y - y_lo) / y_span * (height - 1)))
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    top_label = f"{y_hi:,.6g}"
    bottom_label = f"{y_lo:,.6g}"
    label_width = max(len(top_label), len(bottom_label), len(y_label))
    for r, row in enumerate(grid):
        if r == 0:
            label = top_label
        elif r == height - 1:
            label = bottom_label
        elif r == height // 2 and y_label:
            label = y_label
        else:
            label = ""
        lines.append(f"{label.rjust(label_width)} |{''.join(row)}")
    lines.append(f"{' ' * label_width} +{'-' * width}")
    x_axis = f"{x_lo:,.6g}".ljust(width - len(f"{x_hi:,.6g}")) + f"{x_hi:,.6g}"
    lines.append(f"{' ' * label_width}  {x_axis}")
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(f"{' ' * label_width}  legend: {legend}")
    return "\n".join(lines)
