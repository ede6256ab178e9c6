"""Plain-text tables and series for experiment output."""

from __future__ import annotations

from typing import Any, Sequence


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Monospace table; the paper-claim tests print these as the paper's
    'tables'."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[Any], ys: Sequence[Any]) -> str:
    """A labelled x/y series — the paper's 'figures' in text form."""
    pairs = "  ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"
