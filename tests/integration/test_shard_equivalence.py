"""Merged sharded runs against their monolithic equivalents.

Sharding splits a serving mix of partitioned streams into independent
worker-process runs and merges the per-shard reports.  The merge
contract tested here: traffic-driven totals (DRAM/L2 accesses, GPU work)
are *conserved exactly* -- the same memory requests happen, just in
different processes -- while timing-coupled counters (queue stalls,
row-buffer locality, contention) may drift because the shards no longer
interleave in one clock.  Failure paths surface as
:class:`ShardExecutionError` carrying the same structured ``JobFailure``
records sweep backends use, and no worker process outlives the run.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.accel import SamplingConfig, ShardConfig
from repro.accel.shard import ShardExecutionError, run_sharded
from repro.config import scaled_config
from repro.core.policies import policy_by_name
from repro.session import SimulationSession, simulate
from repro.spec import JobSpec
from repro.streams import StreamConfig
from repro.topology import TOPOLOGIES

#: totals that must survive the process split bit-for-bit: they count
#: *what* traffic happened, not *when*
CONSERVED = (
    "gpu.vector_ops",
    "gpu.mem_requests",
    "gpu.kernels_launched",
    "l1.accesses",
    "l2.accesses",
    "l2.hits",
    "l2.misses",
    "dram.accesses",
    "dram.reads",
    "dram.writes",
)

CACHE_RW = policy_by_name("CacheRW")


def _partitioned_streams(scale=0.5):
    return [
        StreamConfig(workload="CM", scale=scale, cu_share="partitioned", label="cm"),
        StreamConfig(
            workload="FwLSTM", scale=scale, cu_share="partitioned", label="lstm"
        ),
    ]


def _monolithic(streams, config):
    session = SimulationSession(policy=CACHE_RW, config=config, streams=streams)
    session.begin()
    session.sim.run()
    return session.finish().to_dict()


class TestStreamsAxis:
    def test_traffic_totals_are_conserved_exactly(self):
        streams = _partitioned_streams()
        config = scaled_config(8)
        mono = _monolithic(streams, config)
        sharded = simulate(
            policy=CACHE_RW,
            config=config,
            streams=streams,
            shards=ShardConfig(num_shards=2, axis="streams"),
        ).to_dict()
        for name in CONSERVED:
            assert sharded["counters"].get(name, 0) == mono["counters"].get(name, 0), name
        # merged cycle count is the slowest shard's clock; isolation can
        # shift it slightly but not structurally
        assert sharded["cycles"] == pytest.approx(mono["cycles"], rel=0.02)
        assert sharded["counters"]["shard.count"] == 2
        # both tenants' per-stream counters survive, remapped to their
        # global indices
        for stream_index in (0, 1):
            assert f"stream{stream_index}.kernels_launched" in sharded["counters"]

    def test_sampling_composes_with_sharding(self):
        streams = [
            StreamConfig(
                workload="FwLSTM", scale=1.0, cu_share="partitioned", label=f"s{i}"
            )
            for i in range(2)
        ]
        report = simulate(
            policy=CACHE_RW,
            config=scaled_config(8),
            streams=streams,
            sampling=SamplingConfig(),
            shards=ShardConfig(num_shards=2, axis="streams"),
        ).to_dict()
        summary = report["sampling"]
        assert summary["mode"] == "phase_sampled+sharded"
        assert summary["skipped_kernels"] > 0
        assert summary["represented_events"] > summary["executed_events"]


class TestShardValidation:
    def test_rejects_shared_dispatch_streams(self):
        streams = [
            StreamConfig(workload="CM", scale=0.2),
            StreamConfig(workload="FwLSTM", scale=0.2),
        ]
        with pytest.raises(ValueError, match="partitioned"):
            JobSpec(
                policy=CACHE_RW,
                streams=streams,
                shards=ShardConfig(num_shards=2, axis="streams"),
            )

    def test_rejects_more_shards_than_streams(self):
        with pytest.raises(ValueError, match="at least one stream"):
            JobSpec(
                policy=CACHE_RW,
                streams=_partitioned_streams(),
                shards=ShardConfig(num_shards=3, axis="streams"),
            )

    def test_rejects_indivisible_cu_partition(self):
        streams = [
            StreamConfig(
                workload="CM", scale=0.2, cu_share="partitioned", label=f"s{i}"
            )
            for i in range(3)
        ]
        with pytest.raises(ValueError, match="divide"):
            JobSpec(
                policy=CACHE_RW,
                config=scaled_config(8),
                streams=streams,
                shards=ShardConfig(num_shards=3, axis="streams"),
            )

    def test_devices_axis_is_rejected(self):
        with pytest.raises(ValueError, match="devices.*removed"):
            ShardConfig(num_shards=2, axis="devices")

    def test_rejects_a_topology(self):
        with pytest.raises(ValueError, match="topology"):
            JobSpec(
                policy=CACHE_RW,
                streams=_partitioned_streams(),
                topology=TOPOLOGIES["dual-chiplet"],
                shards=ShardConfig(num_shards=2),
            )


class TestShardFailureRecords:
    def test_worker_failure_surfaces_structured_job_failures(self):
        """A shard that cannot even build its session (unknown workload
        name) fails with the sweep-backend failure contract: structured
        records, not a bare traceback."""
        streams = [
            StreamConfig(
                workload="NoSuchWorkload",
                scale=0.5,
                cu_share="partitioned",
                label="bogus",
            ),
            StreamConfig(
                workload="CM", scale=0.5, cu_share="partitioned", label="cm"
            ),
        ]
        with pytest.raises(ShardExecutionError) as excinfo:
            run_sharded(
                JobSpec(
                    policy=CACHE_RW,
                    streams=streams,
                    shards=ShardConfig(num_shards=2, axis="streams"),
                )
            )
        failures = excinfo.value.failures
        assert len(failures) == 1
        failure = failures[0]
        assert "NoSuchWorkload" in failure.error
        assert failure.fingerprint
        assert failure.job  # human-readable shard description


class TestShardProcesses:
    def test_no_worker_outlives_a_run(self):
        """Shards run on a pool that is shut down and joined on success
        and on failure alike."""
        simulate(
            policy=CACHE_RW,
            config=scaled_config(8),
            streams=_partitioned_streams(scale=0.2),
            shards=ShardConfig(num_shards=2),
        )
        assert multiprocessing.active_children() == []
        streams = [
            StreamConfig(workload="NoSuchWorkload", cu_share="partitioned"),
            StreamConfig(workload="CM", scale=0.2, cu_share="partitioned"),
        ]
        with pytest.raises(ShardExecutionError):
            run_sharded(
                JobSpec(policy=CACHE_RW, streams=streams, shards=ShardConfig(num_shards=2))
            )
        assert multiprocessing.active_children() == []
