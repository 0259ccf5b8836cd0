"""Shared infrastructure for the experiment harness.

Each driver is a list of requests plus a renderer: :func:`suite_reports`
runs a suite's requests (built by the one suite rule,
:func:`repro.batch.suite_requests`) on an analyzer session, and
the helpers here render them; :func:`driver_cli` defines every
driver's flags.  Also formatting helpers, an ASCII plotter for the
Appendix F figures, and the per-benchmark record types the table
modules share.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = [
    "fmt",
    "fmt_init",
    "fmt_poly",
    "render_table",
    "render_bounds",
    "ascii_plot",
    "BoundsRow",
    "add_driver_args",
    "batch_reports",
    "driver_cli",
    "bounds_rows",
    "suite_reports",
]


def _at_least(least: int):
    """An argparse ``type``: an int ``>= least``, else a usage error
    naming the flag (exit status 2, no traceback)."""

    def parse(text: str) -> int:
        if not text.lstrip("-").isdigit() or int(text) < least:
            raise argparse.ArgumentTypeError(f"expected an int >= {least}, got {text!r}")
        return int(text)

    return parse


#: The settings flags a driver may take, each defined once here:
#: name -> (least value, help).
_SETTING_FLAGS = {
    "points": (2, "sweep points per figure"),
    "runs": (1, "simulated runs per valuation"),
    "horizon": (1, "tail step horizon n (simulations are truncated there)"),
    "seed": (0, "simulation seed"),
}


def add_driver_args(parser) -> None:
    """Engine flags every driver shares (``--jobs`` and caching)."""
    parser.add_argument("--jobs", type=_at_least(1), default=1, help="worker processes")
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the content-addressed result cache"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="result cache directory (default: $REPRO_CACHE_DIR)"
    )


def driver_cli(main, description: str, argv=None, **defaults) -> int:
    """Parse a driver's flags, print ``main(analyzer=..., **settings)``
    and return the exit status.

    ``defaults`` names the settings flags the driver takes (of
    ``points``, ``runs``, ``horizon`` and ``seed``) with their default
    values; the parsed values are passed on to ``main``.  ``main``
    returns the text to print, or ``(text, ok)``, where a false ``ok``
    makes the status 1.  Results are cached unless ``--no-cache``, so a
    warm re-run short-circuits to stored reports.
    """
    from ..api import Analyzer
    from ..cache import ResultCache

    parser = argparse.ArgumentParser(description=description)
    for name, default in defaults.items():
        least, help_text = _SETTING_FLAGS[name]
        parser.add_argument(f"--{name}", type=_at_least(least), default=default, help=help_text)
    add_driver_args(parser)
    args = parser.parse_args(argv)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    with Analyzer(cache=cache, jobs=args.jobs) as analyzer:
        result = main(analyzer=analyzer, **{name: getattr(args, name) for name in defaults})
    text, ok = result if isinstance(result, tuple) else (result, True)
    print(text)
    return 0 if ok else 1


def batch_reports(requests, analyzer=None) -> list:
    """Run ``requests`` as one batch on ``analyzer``, or on an ephemeral
    default session closed (its worker pool released) afterwards."""
    if analyzer is not None:
        return analyzer.analyze_batch(requests)
    from ..api import Analyzer

    with Analyzer() as session:
        return session.analyze_batch(requests)


def suite_reports(suite: str, analyzer=None, benchmarks=None, all_inits=False, **settings) -> list:
    """Run the requests of ``suite`` (:func:`repro.batch.suite_requests`,
    the rule ``repro batch`` expands suite tasks by) as one batch;
    reports come back in suite order."""
    from ..batch import suite_requests

    requests = suite_requests(suite, settings, all_inits=all_inits, benchmarks=benchmarks)
    return batch_reports(requests, analyzer)


def bounds_rows(
    suite: str, runs: int, seed: int, benchmarks=None, analyzer=None
) -> List["BoundsRow"]:
    """The rows of a bounds + simulation table (Tables 4-6): ``suite``
    at every Table 4 valuation, ``runs`` seeded simulations each."""
    reports = suite_reports(
        suite, analyzer, benchmarks, all_inits=True, simulate_runs=runs, simulate_seed=seed
    )
    return [
        BoundsRow(
            benchmark=r.name,
            init=dict(r.init),
            upper_value=r.upper_value,
            upper_str=r.upper_bound or "-",
            # Synthesis-only elapsed time (never simulation), matching
            # what the paper's T(s) columns measure.
            upper_time=next(
                t for t in (r.upper_runtime, r.analysis_runtime, r.runtime) if t is not None
            ),
            lower_value=r.lower_value,
            lower_str=r.lower_bound or "-",
            lower_time=r.lower_runtime,
            sim_mean=r.sim_mean,
            sim_std=r.sim_std,
        )
        for r in reports
    ]


def render_bounds(title: str, rows: Sequence["BoundsRow"], timed: bool = False) -> str:
    """A bounds + simulation table; ``timed`` adds the synthesis
    ``T(s)`` column after each bound (Table 4)."""
    timing = ["T(s)"] if timed else []
    headers = ["program", "v0", "PUCS", *timing, "PLCS", *timing, "sim mean", "sim std"]
    text_rows = [
        [
            r.benchmark,
            fmt_init(r.init),
            fmt(r.upper_value),
            *([fmt(r.upper_time, 3)] if timed else []),
            fmt(r.lower_value),
            *([fmt(r.lower_time, 3)] if timed else []),
            fmt(r.sim_mean),
            fmt(r.sim_std),
        ]
        for r in rows
    ]
    return f"{title}\n" + render_table(headers, text_rows)


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


def fmt_init(init) -> str:
    """An initial valuation as the tables' ``v0`` column shows it (zero
    entries omitted)."""
    return ", ".join(f"{k}={v:g}" for k, v in init.items() if v)


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
