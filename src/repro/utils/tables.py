"""ASCII table rendering for benchmark harness output.

The benchmark scripts print paper-vs-measured tables; this module provides a
minimal, dependency-free table formatter with column alignment plus helpers
for rendering seconds, bytes and speedup factors the way the paper does
(e.g. ``1.48e-2`` s, ``70x``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

__all__ = ["Table", "format_seconds", "format_bytes", "format_speedup"]


def format_seconds(t: float) -> str:
    """Render a time-per-call in the paper's scientific style (``1.48e-2``)."""
    if t == 0.0:
        return "0"
    if 0.1 <= abs(t) < 1000.0:
        return f"{t:.3g}"
    return f"{t:.2e}"


def format_bytes(n: float) -> str:
    """Render a byte count with a binary-free SI suffix (``4.31 GB``)."""
    for suffix, scale in (("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if abs(n) >= scale:
            return f"{n / scale:.2f} {suffix}"
    return f"{n:.0f} B"


def format_speedup(s: float) -> str:
    """Render a speedup factor the way the paper prints them (``70x``)."""
    if s >= 9.5:
        return f"{s:.0f}x"
    if s >= 0.95:
        return f"{s:.1f}x"
    return f"{s:.2f}x"


class Table:
    """A simple left-padded ASCII table.

    >>> t = Table(["grid", "time"], title="demo")
    >>> t.add_row(["65x65", "2.4e-3"])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, headers: Sequence[str], title: str | None = None) -> None:
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: list[list[str]] = []

    def add_row(self, row: Iterable[Any]) -> None:
        cells = [str(c) for c in row]
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(cells)

    def _widths(self) -> list[int]:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        return widths

    def render(self) -> str:
        widths = self._widths()
        sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        lines.append(sep)
        lines.append(
            "| " + " | ".join(h.ljust(w) for h, w in zip(self.headers, widths)) + " |"
        )
        lines.append(sep)
        for row in self.rows:
            lines.append(
                "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
            )
        lines.append(sep)
        return "\n".join(lines)

