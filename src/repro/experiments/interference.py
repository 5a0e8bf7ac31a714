"""The multi-tenant interference study: serving mixes under cache policies.

The paper evaluates its policies one workload at a time; a GPU serving
production traffic co-schedules many tenants, and co-running kernels
thrash the shared caches (CIAO, arXiv:1805.07718).  This driver measures
that interference and whether the paper's policies mitigate it: every
registered :class:`~repro.streams.config.ServingMix` is simulated under
every requested policy in both CU-share modes (``shared`` round-robin and
``partitioned`` static CU blocks), next to each tenant's *solo* run on the
same system, and three quantities are reported per cell:

* **per-tenant slowdown** -- the tenant's cycles in the mix (arrival to
  completion) divided by its solo cycles; 1.0 means no interference;
* **unfairness** -- max over min tenant slowdown (the multi-tenancy
  fairness metric); 1.0 means every tenant pays equally;
* **makespan** -- the whole mix's execution time.

Every cell is an ordinary :class:`~repro.spec.JobSpec` whose
fingerprint covers the stream configurations, so mixes parallelize across
worker processes and persist in the result store exactly like static,
adaptive and topology runs (a warm repeat simulates nothing) -- and the
solo baselines share store entries with the ordinary single-workload
sweeps of the same (workload, scale, policy, configuration).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.policies import CACHE_RW, CACHE_RW_AB, CACHE_RW_CR, PolicySpec
from repro.experiments.jobs import JobSpec
from repro.experiments.runner import ExperimentRunner
from repro.experiments.study import Column, geomean, mean
from repro.streams.config import SERVING_MIXES, ServingMix, StreamConfig

__all__ = [
    "INTERFERENCE_COLUMNS",
    "INTERFERENCE_POLICIES",
    "CU_MODES",
    "mix_is_partitionable",
    "figure_interference",
]

#: default policy axis: the caching baseline plus the two optimizations
#: the paper proposes for exactly the overheads interference amplifies
#: (allocation stalls -> bypass, dirty-flush row disruption -> rinsing)
INTERFERENCE_POLICIES: tuple[PolicySpec, ...] = (CACHE_RW, CACHE_RW_AB, CACHE_RW_CR)

#: CU-share modes of the study's isolation axis
CU_MODES: tuple[str, ...] = ("shared", "partitioned")

#: the serving summary (what the benchmark asserts on and the CLI prints
#: last): geomean slowdown and mean unfairness of every ``policy@mode``
INTERFERENCE_COLUMNS: dict[str, Column] = {
    "slowdown_geomean": (geomean, "mean_slowdown"),
    "unfairness_mean": (mean, "unfairness"),
}


def mix_is_partitionable(mix: ServingMix, num_cus_per_device: int) -> bool:
    """Whether ``mix`` can statically partition a device's CUs.

    The stream scheduler gives every stream a contiguous CU block *per
    device* (the ``SystemConfig`` describes one device), so the bound is
    one CU per stream per device.  The single predicate both the study
    and the CLI's skip warning consult -- they must never drift apart.
    """
    return mix.num_streams <= num_cus_per_device


def figure_interference(
    runner: Optional[ExperimentRunner] = None,
    mixes: Optional[Sequence[ServingMix]] = None,
    policies: Iterable[PolicySpec] = INTERFERENCE_POLICIES,
    modes: Sequence[str] = CU_MODES,
) -> dict[str, dict[str, dict[str, object]]]:
    """The interference figure: per-tenant slowdown and unfairness per cell.

    Returns ``{mix: {"<policy>@<mode>": {"mean_slowdown": s,
    "max_slowdown": m, "unfairness": u, "cycles": c,
    "tenants": {label: slowdown}}}}``.  Mix cells and solo baselines go
    to the runner as one memoized batch (the parallel fan-out point).
    """
    runner = runner or ExperimentRunner()
    mix_list = list(mixes) if mixes is not None else list(SERVING_MIXES.values())
    policy_list = tuple(policies)
    mode_list = tuple(modes)
    if not mix_list:
        raise ValueError("the interference study needs at least one serving mix")

    # one cell per (mix, policy, mode).  Partitioning needs one
    # CU per stream (per device): mixes too wide for the configured system
    # drop their partitioned cells (an absent column in the figure, which
    # the CLI calls out on stderr) rather than abort the whole study.
    cus_per_device = runner.config.gpu.num_cus
    mix_cells = []
    for mix in mix_list:
        for policy in policy_list:
            for mode in mode_list:
                if mode == "partitioned" and not mix_is_partitionable(
                    mix, cus_per_device
                ):
                    continue
                mix_cells.append((mix, policy, mode, mix.with_cu_share(mode)))
    if not mix_cells:
        raise ValueError(
            "no runnable cells: every requested mix has more streams than the "
            f"{cus_per_device} CUs per device a partition could split -- add "
            "CUs, narrow the mixes, or include the shared mode"
        )

    def mix_job(mode_mix: ServingMix, policy: PolicySpec) -> JobSpec:
        # the runner's scale multiplies every stream's scale; the mix name
        # is only the job's display label
        return JobSpec(
            policy=policy, config=runner.config, streams=mode_mix.scaled(runner.scale)
        )

    def solo_job(stream: StreamConfig, policy: PolicySpec) -> JobSpec:
        # a plain static cell, so solo baselines share store entries with
        # the ordinary sweeps of the same (workload, scale, policy, config)
        return JobSpec(
            workload=stream.workload,
            policy=policy,
            scale=stream.scale * runner.scale,
            config=runner.config,
        )

    # solo baselines only for tenants whose mix actually produced cells --
    # a fully skipped mix must not cost discarded simulations; tenants
    # shared between mixes get one baseline
    jobs = [mix_job(mode_mix, policy) for _mix, policy, _mode, mode_mix in mix_cells]
    jobs += dict.fromkeys(
        solo_job(stream, policy)
        for mix, *_ in mix_cells
        for stream in mix.streams
        for policy in policy_list
    )
    reports = dict(zip(jobs, runner.run(jobs)))

    figure: dict[str, dict[str, dict[str, object]]] = {}
    for mix, policy, mode, mode_mix in mix_cells:
        report = reports[mix_job(mode_mix, policy)]
        solo_cycles = [reports[solo_job(stream, policy)].cycles for stream in mix.streams]
        metrics = report.interference(solo_cycles)
        cell: dict[str, object] = {
            "mean_slowdown": metrics["mean_slowdown"],
            "max_slowdown": metrics["max_slowdown"],
            "unfairness": metrics["unfairness"],
            "cycles": float(report.cycles),
            "tenants": dict(zip(mix.tenant_labels(), metrics["slowdowns"])),
        }
        figure.setdefault(mix.name, {})[f"{policy.name}@{mode}"] = cell
    return figure
