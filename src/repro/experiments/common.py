"""Shared infrastructure for the experiment harness.

Formatting helpers, an ASCII plotter for the Appendix F figures, and the
per-benchmark record types the table modules share.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = [
    "fmt",
    "fmt_poly",
    "render_table",
    "ascii_plot",
    "BoundsRow",
    "add_driver_args",
    "driver_analyzer",
    "driver_cache",
    "table_analyzer",
]


def add_driver_args(parser) -> None:
    """Engine flags every table driver shares (``--jobs`` and caching)."""
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the content-addressed result cache"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="result cache directory (default: $REPRO_CACHE_DIR)"
    )


def driver_cache(args):
    """The result cache a driver ``__main__`` should pass to the engine.

    Caching is on by default so a warm re-run of a table short-circuits
    straight to stored bounds; ``--no-cache`` recomputes everything.
    """
    if getattr(args, "no_cache", False):
        return None
    from ..cache import ResultCache

    return ResultCache(getattr(args, "cache_dir", None))


def driver_analyzer(args):
    """The :class:`repro.api.Analyzer` session a driver ``__main__``
    should run its tables on (cache + pool from the CLI)."""
    from ..api import Analyzer

    return Analyzer(cache=driver_cache(args), jobs=getattr(args, "jobs", 1))


@contextmanager
def table_analyzer(analyzer, jobs: int = 1, cache=None):
    """The session a ``build_tableN`` call should use.

    Yields ``analyzer`` untouched when one is passed; otherwise builds
    an ephemeral :class:`repro.api.Analyzer` from the legacy
    ``jobs``/``cache`` arguments and closes it (releasing its worker
    pool) when the table is done.
    """
    if analyzer is not None:
        yield analyzer
        return
    from ..api import Analyzer

    ephemeral = Analyzer(cache=cache, jobs=jobs)
    try:
        yield ephemeral
    finally:
        ephemeral.close()


def fmt(value: Optional[float], digits: int = 4) -> str:
    """Format a number the way the paper's tables do (short, scientific
    for large magnitudes)."""
    if value is None:
        return "-"
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.{digits - 2}e}"
    return f"{value:.{digits}g}"


def fmt_poly(poly, ndigits: int = 5) -> str:
    """Render a bound polynomial compactly."""
    if poly is None:
        return "-"
    return str(poly.round(ndigits))


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Plain-text table with aligned columns."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    sep = "  "
    lines.append(sep.join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append(sep.join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append(sep.join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


@dataclass
class BoundsRow:
    """One benchmark x initial-valuation record."""

    benchmark: str
    init: dict
    upper_value: Optional[float] = None
    upper_str: str = "-"
    upper_time: Optional[float] = None
    lower_value: Optional[float] = None
    lower_str: str = "-"
    lower_time: Optional[float] = None
    sim_mean: Optional[float] = None
    sim_std: Optional[float] = None

    def bracket_ok(self, slack: float = 0.0) -> bool:
        """Does the simulated mean fall between the bounds (with slack)?"""
        if self.sim_mean is None:
            return True
        if self.upper_value is not None and self.sim_mean > self.upper_value + slack:
            return False
        if self.lower_value is not None and self.sim_mean < self.lower_value - slack:
            return False
        return True


def ascii_plot(
    xs: Sequence[float],
    series: Sequence[Sequence[Optional[float]]],
    labels: Sequence[str],
    width: int = 68,
    height: int = 18,
    title: str = "",
) -> str:
    """Minimal ASCII line plot used to regenerate Figures 15-24.

    ``series`` is a list of y-vectors (same length as ``xs``); ``None``
    entries are skipped.  Each series is drawn with its own glyph.
    """
    glyphs = "UO*x+#"
    points = [
        (x, y, glyphs[s % len(glyphs)])
        for s, ys in enumerate(series)
        for x, y in zip(xs, ys)
        if y is not None and math.isfinite(y)
    ]
    if not points:
        return f"{title}\n(no data)"
    xmin, xmax = min(p[0] for p in points), max(p[0] for p in points)
    ymin, ymax = min(p[1] for p in points), max(p[1] for p in points)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0

    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    for x, y, glyph in points:
        col = int((x - xmin) / (xmax - xmin) * (width - 1))
        row = int((y - ymin) / (ymax - ymin) * (height - 1))
        grid[height - 1 - row][col] = glyph

    lines = []
    if title:
        lines.append(title)
    legend = "   ".join(f"{glyphs[s % len(glyphs)]} = {label}" for s, label in enumerate(labels))
    lines.append(legend)
    lines.append(f"y in [{fmt(ymin)}, {fmt(ymax)}]")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" x in [{fmt(xmin)}, {fmt(xmax)}]")
    return "\n".join(lines)
