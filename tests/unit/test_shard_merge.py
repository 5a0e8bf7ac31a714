"""Unit tests for the in-process halves of a sharded run.

:func:`repro.accel.shard.run_sharded` splits a serving mix into one
:class:`~repro.spec.JobSpec` per shard, runs them as one sweep-executor
batch and folds the reports back together.  The split
(:func:`_share_config`, :func:`_stream_tasks`) and the fold
(:func:`_merge_reports`) are pure functions; these tests pin them
without starting a worker process.
"""

from __future__ import annotations

import pytest

from repro.accel import SamplingConfig, ShardConfig
from repro.accel.shard import (
    _merge_reports,
    _remap_stream_counter,
    _share_config,
    _stream_tasks,
)
from repro.config import scaled_config
from repro.core.policies import policy_by_name
from repro.spec import JobSpec
from repro.stats.report import RunReport
from repro.streams import StreamConfig

CACHE_RW = policy_by_name("CacheRW")


def _streams(count: int) -> tuple[StreamConfig, ...]:
    return tuple(
        StreamConfig(
            workload="CM", scale=0.2, cu_share="partitioned", label=f"s{index}"
        )
        for index in range(count)
    )


def _tasks(streams, num_shards=2, config=None, sampling=None):
    return _stream_tasks(
        JobSpec(
            workload="mix",
            policy=CACHE_RW,
            config=config or scaled_config(32),
            streams=streams,
            sampling=sampling,
            shards=ShardConfig(num_shards=num_shards),
        )
    )


def _report(cycles, counters, sampling=None, error_estimates=None):
    report = RunReport(
        workload="shard", policy="CacheRW", cycles=cycles, counters=dict(counters)
    )
    report.sampling = dict(sampling or {})
    report.error_estimates = dict(error_estimates or {})
    return report


class TestShareConfig:
    def test_full_share_is_the_whole_machine(self):
        config = scaled_config(32)
        assert _share_config(config, 32, 32) is config

    def test_shared_resources_scale_with_the_share(self):
        config = scaled_config(32)
        half = _share_config(config, 16, 32)
        assert half.gpu.num_cus == 16
        assert half.l2.size_bytes == config.l2.size_bytes // 2
        assert half.dram.channels == config.dram.channels // 2
        assert half.interconnect.l2_banks == config.interconnect.l2_banks // 2
        # per-CU resources are not shared, so a slice keeps them whole
        assert half.l1 == config.l1
        assert half.gpu.clock_ghz == config.gpu.clock_ghz

    def test_shared_resources_keep_their_floors(self):
        small = _share_config(scaled_config(8), 1, 8)
        assert small.gpu.num_cus == 1
        assert small.l2.size_bytes == 64 * 1024
        assert small.dram.channels == 2
        assert small.interconnect.l2_banks == 2


class TestStreamTasks:
    def test_streams_are_dealt_round_robin(self):
        streams = _streams(4)
        jobs, assignment = _tasks(streams)
        assert assignment == [[0, 2], [1, 3]]
        assert [job.streams for job in jobs] == [
            (streams[0], streams[2]),
            (streams[1], streams[3]),
        ]

    def test_each_shard_gets_its_streams_share_of_the_cus(self):
        jobs, assignment = _tasks(_streams(4), num_shards=3)
        assert assignment == [[0, 3], [1], [2]]
        assert [job.config.gpu.num_cus for job in jobs] == [16, 8, 8]

    def test_every_job_carries_the_run_inputs(self):
        sampling = SamplingConfig()
        jobs, _ = _tasks(_streams(2), sampling=sampling)
        for job in jobs:
            assert job.workload == "mix"
            assert job.policy == CACHE_RW
            assert job.sampling == sampling
            # a shard job is an ordinary exact run: it never re-shards
            assert job.shards is None


class TestRemapStreamCounter:
    @pytest.mark.parametrize(
        ("name", "expected"),
        [
            ("stream0.kernels_launched", "stream5.kernels_launched"),
            ("stream1.finish_cycle", "stream7.finish_cycle"),
            ("streams.active", "streams.active"),
            ("stream.kernels_launched", "stream.kernels_launched"),
            ("stream0", "stream0"),
            ("l2.hits", "l2.hits"),
        ],
    )
    def test_only_indexed_stream_counters_move(self, name, expected):
        assert _remap_stream_counter(name, {0: 5, 1: 7}) == expected


class TestMergeReports:
    def test_totals_add_and_stream_counters_keep_their_global_index(self):
        reports = [
            _report(100, {"l2.hits": 3, "stream0.kernels_launched": 2}),
            _report(80, {"l2.hits": 4, "stream0.kernels_launched": 5}),
        ]
        merged = _merge_reports(reports, [[0], [1]], "mix", scaled_config(8))
        assert merged.workload == "mix"
        assert merged.policy == "CacheRW"
        assert merged.get("l2.hits") == 7
        assert merged.get("stream0.kernels_launched") == 2
        assert merged.get("stream1.kernels_launched") == 5
        assert merged.get("shard.count") == 2

    def test_the_slowest_shard_sets_the_clock(self):
        reports = [
            _report(100, {"gpu.finish_cycle": 90}),
            _report(140, {"gpu.finish_cycle": 130}),
        ]
        merged = _merge_reports(reports, [[0], [1]], "mix", scaled_config(8))
        assert merged.cycles == 140
        # finish cycles are a maximum, never a sum
        assert merged.get("gpu.finish_cycle") == 140

    def test_unsampled_summary_counts_kernels_but_no_events(self):
        reports = [
            _report(10, {"gpu.kernels_launched": 3}),
            _report(10, {"gpu.kernels_launched": 4}),
        ]
        merged = _merge_reports(reports, [[0], [1]], "mix", scaled_config(8))
        assert merged.sampling == {
            "mode": "sharded",
            "shards": 2,
            "executed_kernels": 7,
            "skipped_kernels": 0,
            "skipped_fraction": 0.0,
        }
        assert merged.error_estimates == {}

    def test_sampled_summary_sums_each_shards_totals(self):
        def sampled(executed, skipped, events, represented, error):
            return _report(
                10,
                {},
                sampling={
                    "executed_kernels": executed,
                    "skipped_kernels": skipped,
                    "executed_events": events,
                    "represented_events": represented,
                },
                error_estimates={"cycles": error, "stream0.finish_cycle": error},
            )

        reports = [sampled(2, 6, 100, 400, 0.05), sampled(3, 1, 50, 70, 0.02)]
        merged = _merge_reports(reports, [[0], [1]], "mix", scaled_config(8))
        assert merged.sampling["mode"] == "phase_sampled+sharded"
        assert merged.sampling["executed_kernels"] == 5
        assert merged.sampling["skipped_kernels"] == 7
        assert merged.sampling["skipped_fraction"] == pytest.approx(7 / 12)
        assert merged.sampling["executed_events"] == 150
        assert merged.sampling["represented_events"] == 470
        # error bounds are the worst shard's, remapped like counters
        assert merged.error_estimates == {
            "cycles": 0.05,
            "stream0.finish_cycle": 0.05,
            "stream1.finish_cycle": 0.02,
        }
