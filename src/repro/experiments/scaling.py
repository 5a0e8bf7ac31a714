"""The device-scaling study: cache policies across 1/2/4-device systems.

The paper evaluates its policies on one GPU; modern MI training runs on
multi-chiplet packages and multi-GPU nodes where the local-vs-remote
asymmetry of a distributed L2 dominates how much a caching policy can pay
off.  This driver sweeps (workload x policy x device count) through the
runner's :class:`~repro.experiments.jobs.SweepExecutor` -- every cell is an
ordinary :class:`~repro.spec.JobSpec` whose fingerprint
includes the :class:`~repro.topology.config.TopologyConfig`, so the cells
parallelize across worker processes and persist in the result store
exactly like static and adaptive runs (a warm repeat simulates nothing).

Two quantities are reported per cell:

* **speedup** -- execution time at 1 device divided by execution time at
  N devices, same policy (strong scaling: a fixed workload is split
  across N devices, each adding CUs, an L2 slice and a DRAM partition,
  so ideal is N and the distance below N is what the fabric + NUMA
  effects cost);
* **remote fraction** -- the fraction of slice-bound requests homed on a
  remote device (always 0 at 1 device).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.policies import STATIC_POLICIES, PolicySpec
from repro.experiments.jobs import JobSpec
from repro.experiments.runner import ExperimentRunner
from repro.experiments.study import Column, geomean, mean
from repro.topology.config import TopologyConfig

__all__ = [
    "SCALING_COLUMNS",
    "SCALING_DEVICES",
    "SCALING_WORKLOADS",
    "scaling_topologies",
    "figure_scaling",
]

#: device counts of the scaling axis (1 is the baseline)
SCALING_DEVICES: tuple[int, ...] = (1, 2, 4)

#: default workload subset: one dense GEMM, one streaming-heavy kernel,
#: one many-kernel RNN, and the transformer attention layer the NUMA
#: literature singles out as fabric-sensitive
SCALING_WORKLOADS: tuple[str, ...] = ("DGEMM", "SGEMM", "FwLSTM", "MHA")

#: the scaling summary (what the benchmark asserts on and the CLI prints
#: last): geomean speedup and mean remote fraction of every series
SCALING_COLUMNS: dict[str, Column] = {
    "speedup_geomean": (geomean, "speedup"),
    "remote_fraction_mean": (mean, "remote_fraction"),
}


def scaling_topologies(
    devices: Sequence[int] = SCALING_DEVICES,
    template: Optional[TopologyConfig] = None,
) -> list[TopologyConfig]:
    """The topology per device count, holding the fabric parameters fixed.

    ``template`` supplies the fabric (defaults to a fresh
    :class:`TopologyConfig`, the chiplet-ish defaults); only the device
    count varies along the sweep axis.
    """
    base = template or TopologyConfig()
    return [base.with_devices(n) for n in devices]


def figure_scaling(
    runner: Optional[ExperimentRunner] = None,
    devices: Sequence[int] = SCALING_DEVICES,
    policies: Iterable[PolicySpec] = STATIC_POLICIES,
    workload_names: Optional[Sequence[str]] = None,
    topology: Optional[TopologyConfig] = None,
) -> dict[str, dict[str, dict[str, float]]]:
    """The scaling figure: speedup and remote fraction per grid cell.

    Returns ``{workload: {"<policy>@<n>dev": {"speedup": s,
    "remote_fraction": r, "cycles": c}}}``.  The 1-device cells anchor
    every policy's speedup at 1.0 by construction.
    """
    runner = runner or ExperimentRunner()
    if 1 not in devices:
        raise ValueError("the scaling sweep needs the 1-device baseline in `devices`")
    names = tuple(workload_names or SCALING_WORKLOADS)
    policy_list = tuple(policies)
    topologies = scaling_topologies(devices, template=topology)
    jobs = {
        (name, policy.name, count): JobSpec(
            workload=name,
            policy=policy,
            scale=runner.scale,
            config=runner.config,
            topology=device_topology,
        )
        for name in names
        for policy in policy_list
        for count, device_topology in zip(devices, topologies)
    }
    reports = dict(zip(jobs, runner.run(jobs.values())))

    result: dict[str, dict[str, dict[str, float]]] = {}
    for workload in names:
        series: dict[str, dict[str, float]] = {}
        for policy in policy_list:
            baseline = reports[(workload, policy.name, 1)].cycles
            for count in devices:
                report = reports[(workload, policy.name, count)]
                series[f"{policy.name}@{count}dev"] = {
                    "speedup": baseline / report.cycles if report.cycles else 0.0,
                    "remote_fraction": report.remote_fraction,
                    "cycles": float(report.cycles),
                }
        result[workload] = series
    return result
