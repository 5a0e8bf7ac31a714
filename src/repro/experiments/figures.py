"""Figures 4-13: one table of views over the (workload x policy) grid.

Every figure of the paper's evaluation reads one number off each report
of the (workload x policy) grid and, for most figures, divides it by a
baseline:

* Figures 4 and 5 -- compute bandwidth (GVOPS) and memory request
  bandwidth (GMR/s) under CacheR;
* Figures 6-9 -- execution time and DRAM accesses normalized to Uncached,
  cache stalls per memory request and the DRAM row-buffer hit ratio of
  the three static policies;
* Figures 10-13 -- the same four metrics for each workload's best and
  worst static policy (by execution time) next to the cumulative
  optimization stack, with execution time normalized to the best static
  policy and DRAM accesses to Uncached.

:data:`FIGURES` states each figure once.  :func:`figure` resolves the
cells a figure needs through an
:class:`~repro.experiments.runner.ExperimentRunner` (its memo and store)
and :func:`tabulate` turns the reports into ``{workload: {series:
value}}``.  Figure 14 (:mod:`repro.experiments.adaptive`) is Figure 10's
view of the static envelope and the full stack plus the online Dynamic
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

from repro.core.classification import WorkloadCategory, classify
from repro.core.policies import (
    CACHE_R,
    OPTIMIZED_POLICIES,
    STATIC_POLICIES,
    UNCACHED,
    PolicySpec,
)
from repro.experiments.runner import ExperimentRunner, SweepResult
from repro.stats.report import RunReport

__all__ = [
    "FIGURES",
    "FigureSpec",
    "STATIC_BEST",
    "STATIC_WORST",
    "figure",
    "measured_categories",
    "own_series",
    "tabulate",
]

#: series labels of each workload's best and worst static policy
STATIC_BEST = "StaticBest"
STATIC_WORST = "StaticWorst"


@dataclass(frozen=True)
class FigureSpec:
    """One view of the grid.

    Attributes:
        title: heading of the rendered table.
        value_format: format of each rendered value.
        policies: the grid columns the figure needs.
        series: ``(label, source)`` per table column, in order; a source
            is a policy name, :data:`STATIC_BEST` or :data:`STATIC_WORST`.
        value: the number read off each report.
        baseline: the source whose value divides every value of its row,
            or ``None`` for raw values.
    """

    title: str
    value_format: str
    policies: tuple[PolicySpec, ...]
    series: tuple[tuple[str, str], ...]
    value: Callable[[RunReport], float]
    baseline: Optional[str] = None


def own_series(*names: str) -> tuple[tuple[str, str], ...]:
    """Series labelled by their own source names."""
    return tuple((name, name) for name in names)


_CYCLES = attrgetter("cycles")
_DRAM = attrgetter("dram_accesses")
_STALLS = attrgetter("cache_stalls_per_request")
_ROW_HITS = attrgetter("dram_row_hit_rate")
_STATIC = own_series(*(policy.name for policy in STATIC_POLICIES))
_ENVELOPE = own_series(STATIC_BEST, STATIC_WORST, *(p.name for p in OPTIMIZED_POLICIES))
_STACK = STATIC_POLICIES + OPTIMIZED_POLICIES

#: figure number -> its view of the grid
FIGURES: dict[int, FigureSpec] = {
    4: FigureSpec("Figure 4: compute bandwidth (GVOPS), CacheR", "{:.1f}",
                  (CACHE_R,), (("GVOPS", CACHE_R.name),), attrgetter("gvops")),
    5: FigureSpec("Figure 5: memory request bandwidth (GMR/s), CacheR", "{:.3f}",
                  (CACHE_R,), (("GMR/s", CACHE_R.name),), attrgetter("gmrs")),
    6: FigureSpec("Figure 6: execution time normalized to Uncached", "{:.3f}",
                  STATIC_POLICIES, _STATIC, _CYCLES, UNCACHED.name),
    7: FigureSpec("Figure 7: DRAM accesses normalized to Uncached", "{:.3f}",
                  STATIC_POLICIES, _STATIC, _DRAM, UNCACHED.name),
    8: FigureSpec("Figure 8: cache stalls per memory request", "{:.3f}",
                  STATIC_POLICIES, _STATIC, _STALLS),
    9: FigureSpec("Figure 9: DRAM row-buffer hit ratio", "{:.3f}",
                  STATIC_POLICIES, _STATIC, _ROW_HITS),
    10: FigureSpec("Figure 10: execution time normalized to best static", "{:.3f}",
                   _STACK, _ENVELOPE, _CYCLES, STATIC_BEST),
    11: FigureSpec("Figure 11: DRAM accesses normalized to Uncached", "{:.3f}",
                   _STACK, _ENVELOPE, _DRAM, UNCACHED.name),
    12: FigureSpec("Figure 12: cache stalls per memory request", "{:.3f}",
                   _STACK, _ENVELOPE, _STALLS),
    13: FigureSpec("Figure 13: DRAM row-buffer hit ratio", "{:.3f}",
                   _STACK, _ENVELOPE, _ROW_HITS),
}


def figure(number: int, runner: ExperimentRunner) -> dict[str, dict[str, float]]:
    """Figure ``number`` over the runner's workloads.

    The cells come through the runner, so figures that share policies
    simulate each cell once per process (and once ever with a store).
    """
    spec = FIGURES[number]
    return tabulate(spec, runner.sweep(spec.policies))


def _report(reports: dict[str, RunReport], source: str, workload: str) -> RunReport:
    """The report behind ``source``; the envelope's ties go to the first
    static policy in :data:`STATIC_POLICIES` order."""
    if source in (STATIC_BEST, STATIC_WORST):
        static = [_report(reports, policy.name, workload) for policy in STATIC_POLICIES]
        return (min if source == STATIC_BEST else max)(static, key=_CYCLES)
    if source not in reports:
        raise KeyError(f"no {source!r} report for workload {workload!r}")
    return reports[source]


def tabulate(spec: FigureSpec, sweep: SweepResult) -> dict[str, dict[str, float]]:
    """``spec``'s ``{workload: {series: value}}`` table, one row per
    workload of ``sweep`` in its order.

    Raises ``KeyError`` naming the workload and the source when a report
    the figure reads is missing, and ``ValueError`` naming the workload
    and the baseline when the baseline's value is zero.
    """
    rows: dict[str, dict[str, RunReport]] = {}
    for (workload, policy), report in sweep.reports.items():
        rows.setdefault(workload, {})[policy] = report
    table: dict[str, dict[str, float]] = {}
    for workload, reports in rows.items():
        values = {
            label: spec.value(_report(reports, source, workload))
            for label, source in spec.series
        }
        if spec.baseline is not None:
            base = spec.value(_report(reports, spec.baseline, workload))
            if base == 0:
                raise ValueError(
                    f"cannot normalize workload {workload!r} to {spec.baseline!r}: "
                    "its value is zero"
                )
            values = {label: value / base for label, value in values.items()}
        table[workload] = values
    return table


def measured_categories(
    runner: ExperimentRunner, band: float = 0.05
) -> dict[str, WorkloadCategory]:
    """Classify every workload from its measured static-policy times."""
    sweep = runner.sweep(STATIC_POLICIES)
    return {
        workload: classify(
            {policy.name: float(sweep.get(workload, policy.name).cycles)
             for policy in STATIC_POLICIES},
            baseline=UNCACHED.name,
            band=band,
        )
        for workload in sweep.workloads()
    }
