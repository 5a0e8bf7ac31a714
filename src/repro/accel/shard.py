"""Sharded multi-process simulation: one serving mix, independent shards.

A serving mix of N partitioned tenants is one monolithic event queue.
:func:`run_sharded` splits it along its streams: each shard owns a
subset of the streams on a proportional slice of the machine (CUs, L2
capacity, DRAM channels and L2 banks scale with the shard's stream
share, mirroring :func:`repro.config.scaled_config`).  Every stream must
use ``cu_share="partitioned"``: shared dispatch couples tenants through
the CU scheduler, which a process boundary cannot reproduce.

Nothing crosses a shard boundary while the shards run, so each shard is
an ordinary :class:`~repro.experiments.jobs.JobSpec` executed to
completion on the sweep backend
(:class:`~repro.experiments.jobs.ProcessPoolBackend`, one worker per
shard).  The backend's lifecycle contract carries over unchanged:
timeouts, no worker left running once the run returns or fails, and
structured :class:`~repro.experiments.jobs.JobFailure` records on a
:class:`ShardExecutionError`.  :func:`_merge_reports` then folds the
per-shard reports into one.

Exact mode (``num_shards == 1``) never reaches this module:
:func:`repro.session.simulate` only dispatches here for a non-empty
:class:`~repro.accel.config.ShardConfig`.
"""

from __future__ import annotations

import math
from dataclasses import replace as dc_replace
from typing import Optional, Sequence, Union

from repro.accel.config import SamplingConfig, ShardConfig
from repro.config import SystemConfig, default_config
from repro.core.policies import PolicySpec, policy_by_name
from repro.core.reuse_predictor import PredictorConfig
from repro.experiments.jobs import JobSpec, ProcessPoolBackend
from repro.stats.report import RunReport
from repro.streams.config import ServingMix, StreamConfig
from repro.topology.config import TopologyConfig
from repro.workloads.base import Workload
from repro.workloads.trace import WorkloadTrace

__all__ = ["ShardExecutionError", "run_sharded"]

#: per-stream counters with absolute (not additive) semantics; they are
#: remapped to the stream's global index but never summed
_STREAM_PREFIX = "stream"


class ShardExecutionError(RuntimeError):
    """A shard failed (crash, timeout, error) during a sharded run.

    Carries structured :class:`~repro.experiments.jobs.JobFailure`
    records on :attr:`failures`, one per shard that could not complete --
    the same contract sweep backends use, so fleet tooling can treat a
    failed shard like a failed job.
    """

    def __init__(self, message: str, failures: Sequence[object]) -> None:
        super().__init__(message)
        self.failures = list(failures)


def _share_config(config: SystemConfig, share: int, total: int) -> SystemConfig:
    """The slice of the machine a shard owning ``share`` of ``total`` CUs
    gets: shared resources scale proportionally with the same floors as
    :func:`repro.config.scaled_config`, per-CU resources are unchanged."""
    if share == total:
        return config
    ratio = share / total
    return SystemConfig(
        gpu=dc_replace(config.gpu, num_cus=share),
        l1=config.l1,
        l2=dc_replace(
            config.l2, size_bytes=max(64 * 1024, int(config.l2.size_bytes * ratio))
        ),
        dram=dc_replace(
            config.dram, channels=max(2, int(math.ceil(config.dram.channels * ratio)))
        ),
        interconnect=dc_replace(
            config.interconnect,
            l2_banks=max(2, int(math.ceil(config.interconnect.l2_banks * ratio))),
        ),
    )


def _stream_tasks(
    shards: ShardConfig,
    streams: tuple[StreamConfig, ...],
    label: str,
    policy: PolicySpec,
    config: SystemConfig,
    predictor_config: Optional[PredictorConfig],
    dbi_max_rows: Optional[int],
    sampling: Optional[SamplingConfig],
) -> tuple[list[JobSpec], list[list[int]]]:
    """One job per shard, plus each shard's global stream indices."""
    num_streams = len(streams)
    if shards.num_shards > num_streams:
        raise ValueError(
            f"cannot split {num_streams} stream(s) into {shards.num_shards} "
            "shards; each shard needs at least one stream"
        )
    if any(stream.cu_share != "partitioned" for stream in streams):
        raise ValueError(
            "streams-axis sharding requires cu_share='partitioned' on every "
            "stream: shared dispatch couples tenants through the CU "
            "scheduler, which a process boundary cannot reproduce"
        )
    total_cus = config.gpu.num_cus
    if total_cus % num_streams:
        raise ValueError(
            f"{total_cus} CUs do not divide evenly among {num_streams} "
            "partitioned streams; sharding needs the exact per-stream share"
        )
    cus_per_stream = total_cus // num_streams
    assignment = [
        list(range(shard_id, num_streams, shards.num_shards))
        for shard_id in range(shards.num_shards)
    ]
    jobs = [
        JobSpec(
            workload=label,
            policy=policy,
            config=_share_config(config, cus_per_stream * len(indices), total_cus),
            predictor_config=predictor_config,
            dbi_max_rows=dbi_max_rows,
            streams=tuple(streams[index] for index in indices),
            sampling=sampling,
        )
        for indices in assignment
    ]
    return jobs, assignment


def _remap_stream_counter(name: str, local_to_global: dict[int, int]) -> str:
    """``stream<local>.x`` -> ``stream<global>.x`` (identity otherwise)."""
    if not name.startswith(_STREAM_PREFIX):
        return name
    head, _, tail = name.partition(".")
    digits = head[len(_STREAM_PREFIX):]
    if not digits.isdigit() or not tail:
        return name
    return f"{_STREAM_PREFIX}{local_to_global[int(digits)]}.{tail}"


def _merge_reports(
    reports: list[RunReport],
    assignment: list[list[int]],
    label: str,
    config: SystemConfig,
) -> RunReport:
    counters: dict[str, int] = {}
    error_estimates: dict[str, float] = {}
    executed_kernels = skipped_kernels = 0
    executed_events = represented_events = 0
    sampled = False
    for indices, report in zip(assignment, reports):
        local_to_global = dict(enumerate(indices))
        for name, value in report.counters.items():
            merged_name = _remap_stream_counter(name, local_to_global)
            if merged_name == "gpu.finish_cycle":
                counters[merged_name] = max(counters.get(merged_name, 0), value)
            else:
                # per-stream counters live in exactly one shard, so plain
                # summation is also a remap-preserving copy for them
                counters[merged_name] = counters.get(merged_name, 0) + value
        for name, value in report.error_estimates.items():
            merged_name = _remap_stream_counter(name, local_to_global)
            error_estimates[merged_name] = max(
                error_estimates.get(merged_name, 0.0), value
            )
        if report.sampling:
            sampled = True
            executed_kernels += int(report.sampling["executed_kernels"])
            skipped_kernels += int(report.sampling["skipped_kernels"])
            executed_events += int(report.sampling["executed_events"])
            represented_events += int(report.sampling["represented_events"])
        else:
            executed_kernels += report.get("gpu.kernels_launched")
    cycles = max(report.cycles for report in reports)
    counters["gpu.finish_cycle"] = max(
        counters.get("gpu.finish_cycle", 0), cycles
    )
    counters["shard.count"] = len(reports)
    total_kernels = executed_kernels + skipped_kernels
    merged = RunReport(
        workload=label,
        policy=reports[0].policy,
        cycles=cycles,
        counters=counters,
        clock_ghz=config.gpu.clock_ghz,
        wavefront_size=config.gpu.wavefront_size,
    )
    merged.error_estimates = error_estimates
    merged.sampling = {
        "mode": "phase_sampled+sharded" if sampled else "sharded",
        "shards": len(reports),
        "executed_kernels": executed_kernels,
        "skipped_kernels": skipped_kernels,
        "skipped_fraction": (
            skipped_kernels / total_kernels if total_kernels else 0.0
        ),
    }
    if sampled:
        merged.sampling["executed_events"] = executed_events
        merged.sampling["represented_events"] = represented_events
    return merged


def run_sharded(
    workload: Union[Workload, WorkloadTrace, None] = None,
    policy: Union[PolicySpec, str, None] = None,
    config: Optional[SystemConfig] = None,
    predictor_config: Optional[PredictorConfig] = None,
    dbi_max_rows: Optional[int] = None,
    adaptive=None,
    topology: Optional[TopologyConfig] = None,
    streams: Union[ServingMix, Sequence[StreamConfig], None] = None,
    faults=None,
    sampling: Optional[SamplingConfig] = None,
    shards: Optional[ShardConfig] = None,
    telemetry=None,
    obs=None,
) -> RunReport:
    """Execute one serving run as independent shard processes and merge.

    Mirrors :func:`repro.session.simulate`'s signature (it dispatches
    here when ``shards`` is non-empty); global subsystems that a process
    boundary cannot split -- adaptive control, a multi-device topology,
    fault plans with events, telemetry observers, the obs layer -- are
    rejected explicitly.
    """
    if shards is None or shards.empty:
        raise ValueError("run_sharded needs a ShardConfig with num_shards > 1")
    if adaptive is not None:
        raise ValueError(
            "sharded execution does not compose with adaptive policy "
            "control: the controller's duel state is global to the run"
        )
    if topology is not None:
        raise ValueError(
            "sharded execution does not compose with a multi-device "
            "topology: run the topology unsharded"
        )
    if faults is not None and not getattr(faults, "empty", False):
        raise ValueError(
            "sharded execution does not compose with fault injection: the "
            "fault schedule addresses the whole system"
        )
    if telemetry is not None and getattr(telemetry, "enabled", True):
        raise ValueError("sharded execution does not support telemetry observers")
    if obs is not None and getattr(obs, "enabled", True):
        raise ValueError("sharded execution does not support the obs layer")
    if policy is None:
        raise ValueError("a sharded run needs a policy")
    if streams is None:
        raise ValueError(
            "nothing to shard along: sharding needs a serving mix (streams=...)"
        )
    if workload is not None:
        raise ValueError(
            "a sharded serving run derives its workloads from the "
            "stream configurations; pass no workload"
        )
    resolved_policy = policy_by_name(policy) if isinstance(policy, str) else policy
    config = config or default_config()

    if isinstance(streams, ServingMix):
        stream_tuple = streams.streams
        label = streams.name
    else:
        stream_tuple = tuple(streams)
        label = "+".join(stream.display for stream in stream_tuple)

    jobs, assignment = _stream_tasks(
        shards,
        stream_tuple,
        label,
        resolved_policy,
        config,
        predictor_config,
        dbi_max_rows,
        sampling,
    )
    backend = ProcessPoolBackend(
        max_workers=len(jobs), timeout=shards.timeout_seconds
    )
    try:
        reports = backend.run_jobs(jobs)
    except Exception as exc:
        raise ShardExecutionError(
            f"{len(backend.failures)} of {len(jobs)} shard(s) failed: {exc!r}",
            backend.failures,
        ) from exc
    return _merge_reports(reports, assignment, label, config)
