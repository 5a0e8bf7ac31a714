"""The resilience study: serving mixes under cache policies while faults fire.

The paper evaluates its policies on a healthy machine; a production fleet
sees link brownouts, DRAM latency storms, whole-device failures and tenant
churn.  This driver chaos-tests the simulated fleet: every requested
serving mix is simulated under every requested policy against every
requested :class:`~repro.faults.config.FaultPlan` (always including the
empty plan as the healthy baseline), on a multi-device topology by
default, and each cell reports

* **slowdown** -- the mix's cycles under the plan divided by its cycles
  under the empty plan (same policy): the performance cost of surviving
  the faults;
* **availability** -- the fraction of the run executed with no fault
  active (1.0 on the baseline by construction);
* **degraded_cycles**, **faults_injected**, **recovery_cycles** -- the raw
  resilience counters behind those ratios.

Determinism makes chaos cacheable: a fault plan is a pure function of its
seed/schedule, it is part of the job fingerprint, and the injected run is
bit-identical across repeats and backends -- so a warm repeat of a chaos
sweep performs zero simulations, and the empty-plan baselines share store
entries with the interference study's healthy serving runs.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence, Union

from repro.core.policies import CACHE_RW, CACHE_RW_AB, CACHE_RW_CR, PolicySpec
from repro.experiments.jobs import JobSpec, SweepCheckpoint
from repro.experiments.runner import ExperimentRunner
from repro.experiments.study import Column, geomean, mean
from repro.faults.config import FAULT_PLANS, FaultPlan
from repro.streams.config import SERVING_MIXES, ServingMix
from repro.topology.config import TopologyConfig, topology_by_name

__all__ = [
    "RESILIENCE_COLUMNS",
    "RESILIENCE_POLICIES",
    "DEFAULT_RESILIENCE_MIXES",
    "DEFAULT_RESILIENCE_PLANS",
    "default_resilience_topology",
    "plan_is_runnable",
    "figure_resilience",
]

#: default policy axis: the caching baseline plus the two paper
#: optimizations whose overheads faults amplify (allocation stalls under
#: degraded links -> bypass, dirty-flush storms on evacuation -> rinsing)
RESILIENCE_POLICIES: tuple[PolicySpec, ...] = (CACHE_RW, CACHE_RW_AB, CACHE_RW_CR)

#: default mix axis: one latency-critical pair and one throughput batch
DEFAULT_RESILIENCE_MIXES: tuple[str, ...] = ("mha+fwlstm", "gemm-burst")

#: default fault-plan axis: the healthy baseline plus every single-cause
#: plan (the seeded chaos plan stays opt-in: its composite slowdown is
#: real but uninterpretable as a figure column)
DEFAULT_RESILIENCE_PLANS: tuple[str, ...] = (
    "none",
    "link-brownout",
    "device-outage",
    "dram-storm",
    "tenant-churn",
)

#: the resilience summary (what the benchmark asserts on and the CLI
#: prints last): geomean slowdown and mean availability of every
#: ``policy@plan`` series
RESILIENCE_COLUMNS: dict[str, Column] = {
    "slowdown_geomean": (geomean, "slowdown"),
    "availability_mean": (mean, "availability"),
}


def default_resilience_topology() -> TopologyConfig:
    """Two chiplets: the smallest system where every fault kind can fire."""
    return topology_by_name("dual-chiplet")


def plan_is_runnable(
    plan: FaultPlan, topology: Optional[TopologyConfig], num_streams: int
) -> Optional[str]:
    """Why ``plan`` cannot run on this system, or ``None`` if it can.

    The single predicate the study and the CLI's skip warnings consult --
    the same checks :class:`~repro.faults.injector.FaultInjector` enforces
    at simulation time, asked up front so a sweep never wastes cells on
    jobs that would abort.
    """
    num_devices = 1 if topology is None else topology.num_devices
    needed = plan.requires_devices()
    if needed > num_devices:
        return f"needs {needed} devices, system has {num_devices}"
    needed = plan.requires_streams()
    if needed > num_streams:
        return f"targets stream {needed - 1}, mix has {num_streams} streams"
    return None


def _resolve_plans(plans: Optional[Sequence[FaultPlan]]) -> list[FaultPlan]:
    if plans is None:
        return [FAULT_PLANS[name] for name in DEFAULT_RESILIENCE_PLANS]
    resolved = list(plans)
    if not any(plan.empty for plan in resolved):
        # the baseline is not optional: slowdown needs a denominator
        resolved.insert(0, FAULT_PLANS["none"])
    return resolved


def figure_resilience(
    runner: Optional[ExperimentRunner] = None,
    mixes: Optional[Sequence[ServingMix]] = None,
    policies: Iterable[PolicySpec] = RESILIENCE_POLICIES,
    plans: Optional[Sequence[FaultPlan]] = None,
    topology: Optional[TopologyConfig] = None,
    checkpoint_path: Optional[Union[str, os.PathLike]] = None,
) -> dict[str, dict[str, dict[str, object]]]:
    """The resilience figure: slowdown and availability per chaos cell.

    Returns ``{mix: {"<policy>@<plan>": {"cycles": c, "slowdown": s,
    "availability": a, "degraded_cycles": d, "faults_injected": n,
    "recovery_cycles": r}}}``.  Plans the system cannot host (device
    faults on a single-device topology, stream kills past the mix's
    width) are dropped per cell rather than aborting the study; the CLI
    reports the skips on stderr via :func:`plan_is_runnable`.

    Every cell goes to the runner as one batch -- the parallel fan-out
    point.  With ``checkpoint_path`` given, a
    :class:`~repro.experiments.jobs.SweepCheckpoint` over the whole grid
    tracks every completion, so a killed sweep re-run against the same
    path resumes without re-simulating finished cells.
    """
    runner = runner or ExperimentRunner()
    if topology is None:
        topology = default_resilience_topology()
    mix_list = (
        list(mixes)
        if mixes is not None
        else [SERVING_MIXES[name] for name in DEFAULT_RESILIENCE_MIXES]
    )
    policy_list = tuple(policies)
    plan_list = _resolve_plans(plans)
    if not mix_list:
        raise ValueError("the resilience study needs at least one serving mix")

    baseline = next(plan for plan in plan_list if plan.empty)
    runnable: dict[str, list[FaultPlan]] = {}
    for mix in mix_list:
        fits = [
            plan
            for plan in plan_list
            if plan_is_runnable(plan, topology, mix.num_streams) is None
        ]
        if len(fits) > 1:  # a mix with only its baseline has nothing to say
            runnable[mix.name] = fits
    if not runnable:
        raise ValueError(
            "no runnable cells: every requested fault plan needs more devices "
            f"or streams than the system provides (topology {topology.label}) "
            "-- widen the topology/mixes or pick other plans"
        )

    def job(mix: ServingMix, policy: PolicySpec, plan: FaultPlan) -> JobSpec:
        return JobSpec(
            policy=policy,
            config=runner.config,
            streams=mix.scaled(runner.scale),
            topology=topology,
            faults=plan,
        )

    jobs = [
        job(mix, policy, plan)
        for mix in mix_list
        if mix.name in runnable
        for policy in policy_list
        for plan in runnable[mix.name]
    ]
    checkpoint = (
        None
        if checkpoint_path is None
        else SweepCheckpoint(checkpoint_path, [spec.fingerprint() for spec in jobs])
    )
    reports = dict(zip(jobs, runner.run(jobs, checkpoint=checkpoint)))

    figure: dict[str, dict[str, dict[str, object]]] = {}
    for mix in mix_list:
        if mix.name not in runnable:
            continue
        for policy in policy_list:
            base = reports[job(mix, policy, baseline)]
            for plan in runnable[mix.name]:
                report = reports[job(mix, policy, plan)]
                cell: dict[str, object] = {
                    "cycles": float(report.cycles),
                    "slowdown": report.cycles / base.cycles if base.cycles else 0.0,
                    "availability": report.availability,
                    "degraded_cycles": report.degraded_cycles,
                    "faults_injected": report.faults_injected,
                    "recovery_cycles": report.recovery_cycles,
                }
                figure.setdefault(mix.name, {})[f"{policy.name}@{plan.label}"] = cell
    return figure
