"""Sharded multi-process simulation: one serving mix, independent shards.

A serving mix of N partitioned tenants is one monolithic event queue.
:func:`run_sharded` splits it along its streams: each shard owns a
subset of the streams on a proportional slice of the machine (CUs, L2
capacity, DRAM channels and L2 banks scale with the shard's stream
share, mirroring :func:`repro.config.scaled_config`).  Every stream must
use ``cu_share="partitioned"``: shared dispatch couples tenants through
the CU scheduler, which a process boundary cannot reproduce.

Nothing crosses a shard boundary while the shards run, so each shard is
an ordinary, unsharded copy of the run's :class:`~repro.spec.JobSpec`
executed to completion on the sweep backend
(:class:`~repro.experiments.jobs.ProcessPoolBackend`, one worker per
shard).  The backend's lifecycle contract carries over unchanged: no
worker left running once the run returns or fails, and structured
:class:`~repro.experiments.jobs.JobFailure` records on a
:class:`ShardExecutionError`.  :func:`_merge_reports` then folds the
per-shard reports into one.

Exact mode (``num_shards == 1``) never reaches this module: the spec
stores a single shard as ``None``, and :func:`repro.session.simulate`
only dispatches here for a sharded spec, which has already rejected the
axes a process boundary cannot split.
"""

from __future__ import annotations

import math
from dataclasses import replace as dc_replace
from typing import Sequence

from repro.config import SystemConfig
from repro.experiments.jobs import ProcessPoolBackend
from repro.spec import JobSpec
from repro.stats.report import RunReport

__all__ = ["ShardExecutionError", "run_sharded"]

#: per-stream counters with absolute (not additive) semantics; they are
#: remapped to the stream's global index but never summed
_STREAM_PREFIX = "stream"


class ShardExecutionError(RuntimeError):
    """A shard failed (crash or error) during a sharded run.

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


def _stream_tasks(job: JobSpec) -> tuple[list[JobSpec], list[list[int]]]:
    """One unsharded job per shard, plus each shard's global stream indices.

    The spec has already checked that the streams are partitioned, that
    every shard gets one and that the CUs divide evenly among them.
    """
    assert job.streams is not None and job.shards is not None
    streams, num_shards = job.streams, job.shards.num_shards
    total_cus = job.config.gpu.num_cus
    cus_per_stream = total_cus // len(streams)
    assignment = [
        list(range(shard_id, len(streams), num_shards)) for shard_id in range(num_shards)
    ]
    jobs = [
        dc_replace(
            job,
            config=_share_config(job.config, cus_per_stream * len(indices), total_cus),
            streams=tuple(streams[index] for index in indices),
            shards=None,
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


def run_sharded(job: JobSpec) -> RunReport:
    """Execute one sharded serving spec as independent shard processes and
    merge their reports (:func:`repro.session.simulate` dispatches here
    for a spec with ``shards``)."""
    if job.shards is None:
        raise ValueError("run_sharded needs a JobSpec with shards (num_shards > 1)")
    jobs, assignment = _stream_tasks(job)
    backend = ProcessPoolBackend(max_workers=len(jobs))
    try:
        reports = backend.run_jobs(jobs)
    except Exception as exc:
        raise ShardExecutionError(
            f"{len(backend.failures)} of {len(jobs)} shard(s) failed: {exc!r}",
            backend.failures,
        ) from exc
    return _merge_reports(reports, assignment, job.workload, job.config)
