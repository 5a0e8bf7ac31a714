"""Tests for the statistics collector and run reports."""

from __future__ import annotations

import pytest

from repro.config import default_config
from repro.experiments.figures import FIGURES, STATIC_BEST, tabulate
from repro.experiments.runner import SweepResult
from repro.stats.counters import StatsCollector
from repro.stats.report import RunReport


class TestStatsCollector:
    def test_add_and_get(self):
        stats = StatsCollector()
        stats.add("l1.hits")
        stats.add("l1.hits", 4)
        assert stats.get("l1.hits") == 5
        assert stats.get("missing") == 0

    def test_set_overrides(self):
        stats = StatsCollector()
        stats.add("x", 10)
        stats.set("x", 3)
        assert stats.get("x") == 3

    def test_matching_prefix(self):
        stats = StatsCollector()
        stats.add("l1.hits", 1)
        stats.add("l1.misses", 2)
        stats.add("l2.hits", 3)
        assert stats.matching("l1.") == {"l1.hits": 1, "l1.misses": 2}

    def test_sum(self):
        stats = StatsCollector()
        stats.add("a", 1)
        stats.add("b", 2)
        assert stats.sum(["a", "b", "c"]) == 3

    def test_histograms(self):
        stats = StatsCollector()
        for value in (10, 10, 20):
            stats.observe("latency", value)
        assert stats.histogram("latency") == {10: 2, 20: 1}
        assert stats.histogram_mean("latency") == pytest.approx(40 / 3)
        assert stats.histogram_mean("missing") == 0.0

    def test_histogram_percentile_nearest_rank(self):
        stats = StatsCollector()
        for value, count in ((10, 50), (20, 45), (100, 5)):
            for _ in range(count):
                stats.observe("lat", value)
        assert stats.histogram_percentile("lat", 0) == 10.0
        assert stats.histogram_percentile("lat", 50) == 10.0
        assert stats.histogram_percentile("lat", 95) == 20.0
        assert stats.histogram_percentile("lat", 99) == 100.0
        assert stats.histogram_percentile("lat", 100) == 100.0

    def test_histogram_percentile_is_an_observed_value(self):
        stats = StatsCollector()
        for value in (1, 9):
            stats.observe("lat", value)
        # nearest-rank never interpolates between observations
        assert stats.histogram_percentile("lat", 50) == 1.0
        assert stats.histogram_percentile("lat", 51) == 9.0

    def test_histogram_percentile_bounds_and_empty(self):
        stats = StatsCollector()
        assert stats.histogram_percentile("missing", 99) == 0.0
        with pytest.raises(ValueError):
            stats.histogram_percentile("missing", 101)
        with pytest.raises(ValueError):
            stats.histogram_percentile("missing", -0.1)

    def test_histogram_summary(self):
        stats = StatsCollector()
        for value in (10, 10, 20, 40):
            stats.observe("lat", value)
        summary = stats.histogram_summary("lat")
        assert summary == {
            "count": 4.0,
            "mean": 20.0,
            "p50": 10.0,
            "p95": 40.0,
            "p99": 40.0,
            "max": 40.0,
        }
        empty = stats.histogram_summary("missing")
        assert set(empty) == set(summary)
        assert all(value == 0.0 for value in empty.values())

    def test_snapshot_and_delta(self):
        stats = StatsCollector()
        stats.add("x", 5)
        snap = stats.snapshot()
        stats.add("x", 2)
        stats.add("y", 1)
        assert stats.delta_since(snap) == {"x": 2, "y": 1}

    def test_merge(self):
        a, b = StatsCollector(), StatsCollector()
        a.add("x", 1)
        b.add("x", 2)
        b.observe("h", 5)
        a.merge(b)
        assert a.get("x") == 3
        assert a.histogram("h") == {5: 1}


class TestCounterHandles:
    def test_handle_increments_shared_counter(self):
        stats = StatsCollector()
        handle = stats.counter("l1.hits")
        handle.add()
        handle.add(4)
        assert stats.get("l1.hits") == 5
        assert stats.counters() == {"l1.hits": 5}

    def test_same_name_resolves_to_same_handle(self):
        # per-CU L1 caches all resolve "l1.*" handles; they must aggregate
        stats = StatsCollector()
        a = stats.counter("l1.hits")
        b = stats.counter("l1.hits")
        assert a is b
        a.add(2)
        b.add(3)
        assert stats.get("l1.hits") == 5

    def test_handles_interoperate_with_named_api(self):
        stats = StatsCollector()
        handle = stats.counter("x")
        stats.add("x", 2)
        handle.add(3)
        assert stats.get("x") == 5
        stats.set("x", 1)
        assert handle.value == 1

    def test_resolved_but_unwritten_counters_are_invisible(self):
        # pre-registering handles in __init__ must not change report
        # contents versus the old lazily-created counters
        stats = StatsCollector()
        stats.counter("l1.rinse_writebacks")
        stats.add("l1.hits")
        assert stats.counters() == {"l1.hits": 1}
        assert stats.snapshot() == {"l1.hits": 1}
        assert stats.matching("l1.") == {"l1.hits": 1}
        assert stats.get("l1.rinse_writebacks", default=7) == 7

    def test_zero_amount_write_makes_counter_visible(self):
        # invalidate_clean adds 0 when nothing was dropped; the counter
        # still appears, exactly as the defaultdict behaviour did
        stats = StatsCollector()
        stats.counter("l1.self_invalidations").add(0)
        assert stats.counters() == {"l1.self_invalidations": 0}

    def test_merge_ignores_unwritten_handles(self):
        a, b = StatsCollector(), StatsCollector()
        b.counter("never_written")
        b.add("x", 2)
        a.merge(b)
        assert a.counters() == {"x": 2}

    def test_delta_since_with_handles(self):
        stats = StatsCollector()
        handle = stats.counter("x")
        handle.add(5)
        snap = stats.snapshot()
        handle.add(2)
        stats.counter("y")  # resolved, never written: not in the delta
        stats.add("z", 1)
        assert stats.delta_since(snap) == {"x": 2, "z": 1}

    def test_value_bumped_handle_is_visible_everywhere(self):
        # hot paths write ``handle.value += n`` for positive n without
        # marking the handle touched; a nonzero value is enough to show
        stats = StatsCollector()
        handle = stats.counter("l2.fills")
        stats.counter("l2.hits")  # resolved, never written
        snap = stats.snapshot()
        handle.value += 1
        handle.value += 2
        assert not handle.touched
        assert stats.counters() == {"l2.fills": 3}
        assert stats.matching("l2.") == {"l2.fills": 3}
        assert stats.get("l2.fills", default=-1) == 3
        assert stats.snapshot() == {"l2.fills": 3}
        assert stats.delta_since(snap) == {"l2.fills": 3}
        merged = StatsCollector()
        merged.merge(stats)
        assert merged.counters() == {"l2.fills": 3}

    def test_resolved_handle_stays_hidden_from_every_view(self):
        stats = StatsCollector()
        stats.counter("l2.hits")
        assert stats.counters() == {}
        assert stats.matching("l2.") == {}
        assert stats.get("l2.hits", default=-1) == -1
        assert stats.delta_since(stats.snapshot()) == {}
        merged = StatsCollector()
        merged.merge(stats)
        assert merged.counters() == {}

    def test_zero_writes_through_add_and_set_stay_visible(self):
        stats = StatsCollector()
        stats.counter("l1.flush_writebacks").add(0)
        stats.set("gpu.kernels", 0)
        expected = {"l1.flush_writebacks": 0, "gpu.kernels": 0}
        assert stats.counters() == expected
        assert stats.get("gpu.kernels", default=-1) == 0
        assert stats.matching("l1.") == {"l1.flush_writebacks": 0}
        merged = StatsCollector()
        merged.merge(stats)
        assert merged.counters() == expected

    def test_histogram_handle_is_live_view(self):
        stats = StatsCollector()
        handle = stats.histogram_handle("lat")
        handle[10] += 1
        stats.observe("lat", 10)
        handle[20] += 1
        assert stats.histogram("lat") == {10: 2, 20: 1}


def _report(policy: str, cycles: int, **counters) -> RunReport:
    base = {
        "gpu.mem_requests": 1000,
        "gpu.vector_ops": 2000,
        "dram.accesses": 500,
        "dram.reads": 300,
        "dram.writes": 200,
        "dram.row_hits": 400,
        "l1.stall_cycles": 100,
        "l2.stall_cycles": 50,
        "l1.accesses": 1000,
        "l1.hits": 600,
        "l2.accesses": 400,
        "l2.hits": 100,
        "gpu.kernels_completed": 1,
    }
    base.update(counters)
    return RunReport(workload="W", policy=policy, cycles=cycles, counters=base, clock_ghz=1.6)


class TestRunReport:
    def test_seconds_from_clock(self):
        report = _report("Uncached", cycles=1_600_000)
        assert report.seconds == pytest.approx(0.001)

    def test_derived_metrics(self):
        report = _report("CacheR", cycles=1000)
        assert report.dram_row_hit_rate == pytest.approx(0.8)
        assert report.cache_stall_cycles == 150
        assert report.cache_stalls_per_request == pytest.approx(0.15)
        assert report.l1_hit_rate == pytest.approx(0.6)
        assert report.l2_hit_rate == pytest.approx(0.25)

    def test_bandwidth_metrics_scale_with_time(self):
        fast = _report("CacheR", cycles=1000)
        slow = _report("CacheR", cycles=2000)
        assert fast.gvops > slow.gvops
        assert fast.gmrs > slow.gmrs

    def test_lane_ops_multiplied_by_wavefront_size(self):
        report = _report("CacheR", cycles=1000)
        assert report.lane_ops == 2000 * 64

    def test_zero_division_guards(self):
        empty = RunReport(workload="W", policy="P", cycles=10, counters={})
        assert empty.dram_row_hit_rate == 0.0
        assert empty.cache_stalls_per_request == 0.0
        assert empty.l1_hit_rate == 0.0

    def test_as_dict_round_trip(self):
        data = _report("CacheRW", cycles=123).as_dict()
        assert data["workload"] == "W"
        assert data["policy"] == "CacheRW"
        assert data["cycles"] == 123

    def test_from_stats_uses_config_clock(self):
        stats = StatsCollector()
        stats.add("gpu.mem_requests", 10)
        report = RunReport.from_stats("W", "Uncached", 100, stats, default_config())
        assert report.clock_ghz == default_config().gpu.clock_ghz
        assert report.gpu_mem_requests == 10


class TestStatsCollectorMerge:
    def test_merge_adds_shared_histogram_buckets(self):
        a = StatsCollector()
        b = StatsCollector()
        for value in (10, 10, 30):
            a.observe("gpu.mem_latency", value)
        for value in (10, 20):
            b.observe("gpu.mem_latency", value)
        a.merge(b)
        assert a.histogram("gpu.mem_latency") == {10: 3, 20: 1, 30: 1}
        # percentiles see the merged population
        assert a.histogram_percentile("gpu.mem_latency", 50) == 10.0
        assert a.histogram_percentile("gpu.mem_latency", 100) == 30.0

    def test_merge_keeps_disjoint_histograms(self):
        a = StatsCollector()
        b = StatsCollector()
        a.observe("l1.lat", 1)
        b.observe("l2.lat", 2)
        a.merge(b)
        assert a.histogram("l1.lat") == {1: 1}
        assert a.histogram("l2.lat") == {2: 1}

    def test_merged_collectors_feed_the_figure_table(self):
        # two shards of one run merge, then compare against the other policies
        shard1, shard2 = StatsCollector(), StatsCollector()
        shard1.add("dram.accesses", 300)
        shard2.add("dram.accesses", 100)
        shard1.merge(shard2)
        merged = RunReport.from_stats("W", "CacheR", 80, shard1, default_config())

        sweep = SweepResult()
        sweep.add(_report("Uncached", cycles=100, **{"dram.accesses": 800}))
        sweep.add(merged)
        for policy in ("CacheRW", "CacheRW-AB", "CacheRW-CR", "CacheRW-PCby"):
            sweep.add(_report(policy, cycles=120))
        assert tabulate(FIGURES[7], sweep)["W"]["CacheR"] == pytest.approx(0.5)
        # the merged CacheR run is the best static policy
        assert tabulate(FIGURES[11], sweep)["W"][STATIC_BEST] == pytest.approx(0.5)
