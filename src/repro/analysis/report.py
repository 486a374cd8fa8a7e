"""Plain-text table/series rendering for experiment outputs.

Every experiment driver produces rows that these helpers print in the
layout of the paper's figures (bar groups become columns, series become
rows), so benchmark logs read like the paper's tables.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence


def _cell(value: Optional[float], value_format: str) -> str:
    """One rendered table cell; missing/failed values become ``n/a``.

    Failed simulations propagate NaN through the metric layer, so a NaN
    here means "this cell's data could not be computed" -- render it
    honestly instead of printing ``nan``.
    """
    if value is None:
        return "-"
    if isinstance(value, float) and math.isnan(value):
        return "n/a"
    return value_format.format(value)


def format_table(title: str, columns: Sequence[str],
                 rows: Mapping[str, Sequence[float]],
                 value_format: str = "{:8.3f}") -> str:
    """Render a labelled table: one line per row label."""
    label_width = max([len(label) for label in rows] + [len("config")])
    col_width = max([len(c) for c in columns] + [8]) + 2
    lines = [title, "=" * len(title)]
    header = "config".ljust(label_width) + "".join(
        c.rjust(col_width) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for label, values in rows.items():
        cells = "".join(
            _cell(v, value_format).rjust(col_width) for v in values)
        lines.append(label.ljust(label_width) + cells)
    return "\n".join(lines)


def format_series(title: str, series: Mapping[str, Mapping[str, float]],
                  value_format: str = "{:7.3f}") -> str:
    """Render per-trace series: one column per series, one line per trace."""
    names: List[str] = []
    for values in series.values():
        for name in values:
            if name not in names:
                names.append(name)
    label_width = max([len(n) for n in names] + [len("trace")])
    col_width = max([len(s) for s in series] + [8]) + 2
    lines = [title, "=" * len(title)]
    header = "trace".ljust(label_width) + "".join(
        s.rjust(col_width) for s in series)
    lines.append(header)
    lines.append("-" * len(header))
    for name in names:
        cells = ""
        for values in series.values():
            cells += _cell(values.get(name), value_format).rjust(col_width)
        lines.append(name.ljust(label_width) + cells)
    return "\n".join(lines)


def format_profile(report: Mapping[str, Sequence[float]],
                   title: str = "wall-clock profile") -> str:
    """Render a :meth:`repro.obs.PhaseProfiler.report` as a table.

    One line per phase: total seconds, times entered, and mean seconds
    per entry -- the table form of the ``[profile: ...]`` line that
    ``repro campaign`` prints after its figures.
    """
    lines = [title, "=" * len(title)]
    width = max([len(name) for name in report] + [len("phase")])
    lines.append("phase".ljust(width) + "   seconds" + "    count"
                 + "     mean")
    lines.append("-" * (width + 26))
    for name, (seconds, count) in report.items():
        mean = seconds / count if count else 0.0
        lines.append(name.ljust(width) + f"{seconds:9.3f}s"
                     + f"{count:9d}" + f"{mean:8.3f}s")
    return "\n".join(lines)


def format_stacked(title: str, categories: Sequence[str],
                   bars: Mapping[str, Mapping[str, float]],
                   value_format: str = "{:7.2f}") -> str:
    """Render stacked bars (e.g. the Fig. 3 APKI split) as a table."""
    label_width = max([len(label) for label in bars] + [len("bar")])
    col_width = max([len(c) for c in categories] + [8]) + 2
    lines = [title, "=" * len(title)]
    header = "bar".ljust(label_width) + "".join(
        c.rjust(col_width) for c in categories) + "   total".rjust(10)
    lines.append(header)
    lines.append("-" * len(header))
    for label, split in bars.items():
        cells = "".join(
            _cell(split.get(c, 0.0), value_format).rjust(col_width)
            for c in categories)
        total = sum(split.values())
        lines.append(label.ljust(label_width) + cells
                     + _cell(total, value_format).rjust(10))
    return "\n".join(lines)
