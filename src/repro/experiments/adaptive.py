"""Figure 14: the online dynamic policy versus the static envelope.

The paper's conclusion asks for "smart and adaptive cache policies"; this
driver measures the online subsystem of :mod:`repro.adaptive` against the
quantities the paper uses to frame the opportunity:

* **StaticBest / StaticWorst** -- the per-workload best and worst of the
  three static policies (the oracle envelope of Figures 10-13).
* **CacheRW-PCby** -- the paper's full cumulative optimization stack.
* **Dynamic** -- one run per workload that starts with no knowledge of the
  workload and lets set dueling plus phase detection pick the policy
  online.

All runs go through the shared :class:`~repro.experiments.runner
.ExperimentRunner`/:class:`~repro.experiments.jobs.SweepExecutor` path:
dynamic runs are ordinary :class:`~repro.spec.JobSpec` cells
whose fingerprint includes the :class:`~repro.adaptive.config
.AdaptiveConfig`, so they parallelize across worker processes and persist
in the result store exactly like static runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Sequence

from repro.adaptive.config import DYNAMIC, AdaptiveConfig
from repro.core.classification import PAPER_CATEGORIES, WorkloadCategory
from repro.core.policies import CACHE_RW_PCBY, STATIC_POLICIES
from repro.experiments.figures import (
    FIGURES,
    STATIC_BEST,
    STATIC_WORST,
    own_series,
    tabulate,
)
from repro.experiments.jobs import JobSpec
from repro.experiments.runner import ExperimentRunner
from repro.experiments.study import geomean
from repro.stats.report import RunReport

__all__ = [
    "DYNAMIC",
    "adaptive_sweep",
    "figure14_adaptive",
    "adaptive_summary",
    "geomean",
]

def adaptive_sweep(
    runner: ExperimentRunner,
    adaptive_config: Optional[AdaptiveConfig] = None,
    workload_names: Optional[Sequence[str]] = None,
) -> dict[str, RunReport]:
    """One dynamic run per workload, through the runner's executor.

    The jobs are submitted as a single batch, so an executor with several
    workers runs them concurrently and the persistent store caches them under the
    adaptive configuration's fingerprint.  Each job records the initial
    policy; differently tuned adaptive studies never share a cell.
    """
    config = adaptive_config or AdaptiveConfig()
    names = tuple(workload_names or runner.workload_names)
    jobs = [
        JobSpec(
            workload=name,
            policy=config.initial_policy,
            scale=runner.scale,
            config=runner.config,
            adaptive=config,
        )
        for name in names
    ]
    return dict(zip(names, runner.run(jobs)))


def figure14_adaptive(
    runner: Optional[ExperimentRunner] = None,
    adaptive_config: Optional[AdaptiveConfig] = None,
    workload_names: Optional[Sequence[str]] = None,
) -> dict[str, dict[str, float]]:
    """Figure 14: execution time normalized to the best static policy.

    Figure 10's view (:data:`~repro.experiments.figures.FIGURES`) over
    StaticBest (1.0 by construction), StaticWorst, the paper's full
    optimization stack (CacheRW-PCby) and the online Dynamic policy.
    """
    runner = runner or ExperimentRunner()
    names = tuple(workload_names or runner.workload_names)
    spec = replace(
        FIGURES[10],
        policies=STATIC_POLICIES + (CACHE_RW_PCBY,),
        series=own_series(STATIC_BEST, STATIC_WORST, CACHE_RW_PCBY.name, DYNAMIC),
    )
    sweep = runner.sweep(spec.policies, names)
    for report in adaptive_sweep(runner, adaptive_config, names).values():
        sweep.add(report)
    return tabulate(spec, sweep)


def adaptive_summary(
    figure: Mapping[str, Mapping[str, float]],
) -> dict[str, dict[str, float]]:
    """Geomean of every Figure 14 series, overall and per paper category.

    The acceptance question for the dynamic policy reads directly off this
    summary: ``Dynamic`` must beat ``StaticWorst`` overall and sit inside
    the StaticBest/optimization-stack envelope on the reuse-sensitive
    group.
    """
    groups: dict[str, list[str]] = {"All": list(figure)}
    for category in WorkloadCategory:
        members = [
            workload
            for workload in figure
            if PAPER_CATEGORIES.get(workload) is category
        ]
        if members:
            groups[str(category)] = members

    summary: dict[str, dict[str, float]] = {}
    for group, members in groups.items():
        series_names = figure[members[0]].keys()
        summary[group] = {
            series: geomean(figure[workload][series] for workload in members)
            for series in series_names
        }
    return summary
