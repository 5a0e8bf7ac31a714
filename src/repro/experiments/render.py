"""Plain-text rendering of figure data.

The paper's figures are bar charts over the 17 workloads with one series
per policy.  The harness renders the same data as aligned text tables (one
row per workload, one column per series), which is what the benchmark
output files and EXPERIMENTS.md record.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["render_series_table", "render_kv_table"]


def render_series_table(
    title: str,
    data: Mapping[str, Mapping[str, float]],
    value_format: str = "{:.3f}",
    workload_order: Sequence[str] | None = None,
) -> str:
    """Render ``{workload: {series: value}}`` as an aligned text table.

    Args:
        title: heading line.
        data: per-workload, per-series values.
        value_format: format applied to each value.
        workload_order: row order; defaults to insertion order of ``data``.
    """
    if not data:
        return f"{title}\n(no data)\n"
    workloads = list(workload_order) if workload_order else list(data.keys())
    # columns: every series seen, in first-seen order
    series = list(dict.fromkeys(name for row in data.values() for name in row))

    name_width = max(len("Workload"), max(len(w) for w in workloads))
    col_widths = [
        max(len(s), max(len(value_format.format(data[w].get(s, float("nan")))) for w in workloads))
        for s in series
    ]
    lines = [title]
    header = "Workload".ljust(name_width) + "  " + "  ".join(
        s.rjust(width) for s, width in zip(series, col_widths)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for workload in workloads:
        row = data.get(workload, {})
        cells = []
        for s, width in zip(series, col_widths):
            if s in row:
                cells.append(value_format.format(row[s]).rjust(width))
            else:
                cells.append("-".rjust(width))
        lines.append(workload.ljust(name_width) + "  " + "  ".join(cells))
    return "\n".join(lines) + "\n"


def render_kv_table(title: str, rows: Mapping[str, object]) -> str:
    """Render a two-column key/value table (used for Table 1)."""
    if not rows:
        return f"{title}\n(no data)\n"
    key_width = max(len(k) for k in rows)
    lines = [title, "-" * len(title)]
    for key, value in rows.items():
        lines.append(f"{key.ljust(key_width)}  {value}")
    return "\n".join(lines) + "\n"
