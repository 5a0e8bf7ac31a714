"""Shared output helpers for the study drivers.

Every study (Figure 14, device scaling, interference) returns
its figure as ``{row: {series: cell}}``: a cell is one number for Figure 14
and a dict of named metrics for the others.  The CLI and the benchmark
harness project, summarize and record every study through these helpers,
so their tables and JSON artifacts can never drift apart.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Mapping

__all__ = ["Column", "Figure", "artifact", "geomean", "mean", "series", "summarize"]

#: one summary column: (statistic over a series' cells, metric it reads)
Column = tuple[Callable[[Iterable[float]], float], str]

#: a study figure: ``{row: {series: {metric: value}}}``
Figure = Mapping[str, Mapping[str, Mapping[str, Any]]]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's summary statistic for ratios)."""
    values = list(values)
    if not values:
        raise ValueError("geomean needs at least one value")
    if any(value <= 0 for value in values):
        raise ValueError("geomean is only defined for positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (for fractions, which may be zero)."""
    values = list(values)
    return sum(values) / len(values)


def series(figure: Figure, metric: str) -> dict[str, dict[str, float]]:
    """Project one scalar metric out of a study figure, in the shape
    ``render_series_table`` takes."""
    return {
        row: {name: float(cell[metric]) for name, cell in data.items()}
        for row, data in figure.items()
    }


def summarize(figure: Figure, columns: Mapping[str, Column]) -> dict[str, dict[str, float]]:
    """One summary row per series, in first-seen order.

    Each column applies its statistic to the column's metric over every
    figure row that has the series.
    """
    names = list(dict.fromkeys(name for data in figure.values() for name in data))
    return {
        name: {
            column: statistic(
                float(data[name][metric]) for data in figure.values() if name in data
            )
            for column, (statistic, metric) in columns.items()
        }
        for name in names
    }


def artifact(
    name: str,
    figure: Mapping[str, object],
    summary: Mapping[str, Mapping[str, float]],
    **context: object,
) -> dict[str, object]:
    """The JSON blob a study records: ``figure`` under ``name``, its summary,
    and whatever context the producer attaches (scale, CU count, axes)."""
    return {"schema": 1, name: figure, "summary": summary, **context}
