"""Plain-text table rendering for the benchmark harness.

The benches print the same rows/series the paper's tables and figures
report; this module is the one formatter they share, so output stays
uniform and greppable (``column: value`` alignment, no external deps).
"""

from __future__ import annotations

from typing import Sequence


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render rows as an aligned ASCII table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(
            " | ".join(c.ljust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)


def render_series(
    x_name: str,
    series: dict[str, dict[object, float]],
    *,
    title: str | None = None,
) -> str:
    """Render {series_name: {x: y}} as one table with x as first column.

    The shape figures (speedup curves, per-iteration I/O) print through
    this: one row per x value, one column per series.
    """
    xs = sorted({x for ys in series.values() for x in ys})
    headers = [x_name, *series.keys()]
    rows = []
    for x in xs:
        rows.append(
            [x, *(series[name].get(x, float("nan")) for name in series)]
        )
    return render_table(headers, rows, title=title)
