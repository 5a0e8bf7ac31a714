"""Tests for the telemetry subsystem: trace recorder, trace validation,
windowed metrics sampler, and host-side profiler."""

from __future__ import annotations

import functools
import os
import sys

import pytest

import repro
from repro.engine.simulator import Simulator
from repro.telemetry import (
    MetricsSampler,
    SimProfiler,
    TelemetryConfig,
    TraceRecorder,
    derive_window,
    trace_errors,
    validate_trace,
    windows_total,
)
from repro.telemetry.config import ALERT_METRICS_INTERVAL
from repro.telemetry.profiler import module_table, profiling_active
from repro.telemetry.trace import PID_STREAMS, WAVE_LANE_STRIDE


class FakeSim:
    """Just enough simulator for the recorder: a settable clock."""

    def __init__(self) -> None:
        self.now = 0


class TestTelemetryConfig:
    def test_disabled_by_default(self):
        config = TelemetryConfig()
        assert not config.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trace": True},
            {"metrics_interval": 100},
            {"profile": True},
            {"ledger_path": "ledger.jsonl"},
            {"alerts": True},
        ],
    )
    def test_any_observer_enables(self, kwargs):
        assert TelemetryConfig(**kwargs).enabled

    @pytest.mark.parametrize(
        ("kwargs", "window_cycles"),
        [
            ({}, 0),
            ({"metrics_interval": 700}, 700),
            ({"alerts": True}, ALERT_METRICS_INTERVAL),
            ({"alerts": True, "metrics_interval": 700}, 700),
            ({"ledger_path": "ledger.jsonl"}, 0),
        ],
    )
    def test_alerts_imply_windows_unless_an_interval_is_given(self, kwargs, window_cycles):
        assert TelemetryConfig(**kwargs).window_cycles == window_cycles

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            TelemetryConfig(metrics_interval=-1)


class TestTraceRecorder:
    def test_kernel_span(self):
        sim = FakeSim()
        recorder = TraceRecorder(sim)
        recorder.kernel_started(0, 3, "gemm")
        sim.now = 500
        recorder.kernel_finished(0)
        (span,) = recorder.spans("kernel")
        assert span["name"] == "gemm"
        assert span["ts"] == 0 and span["dur"] == 500
        assert span["pid"] == PID_STREAMS and span["tid"] == 0
        assert span["args"]["kernel_index"] == 3

    def test_interrupted_kernel_is_flagged(self):
        sim = FakeSim()
        recorder = TraceRecorder(sim)
        recorder.kernel_started(1, 0, "k")
        sim.now = 10
        recorder.kernel_interrupted(1)
        (span,) = recorder.spans("kernel")
        assert span["args"]["interrupted"] is True

    def test_interrupting_an_idle_stream_records_nothing(self):
        sim = FakeSim()
        recorder = TraceRecorder(sim)
        recorder.kernel_started(0, 0, "k")
        sim.now = 10
        recorder.kernel_finished(0)
        recorder.kernel_interrupted(0)  # already closed
        recorder.kernel_interrupted(5)  # never opened
        (span,) = recorder.spans("kernel")
        assert "interrupted" not in span["args"]

    def test_finish_flags_the_open_kernel_of_every_stream(self):
        sim = FakeSim()
        recorder = TraceRecorder(sim)
        recorder.kernel_started(0, 1, "a")
        recorder.kernel_started(2, 4, "b")
        sim.now = 30
        recorder.finish(30)
        spans = {span["tid"]: span for span in recorder.spans("kernel")}
        assert set(spans) == {0, 2}
        assert all(span["args"]["interrupted"] is True for span in spans.values())
        assert all(span["dur"] == 30 for span in spans.values())

    def test_finish_is_idempotent(self):
        sim = FakeSim()
        recorder = TraceRecorder(sim)
        recorder.kernel_started(0, 0, "k")
        sim.now = 20
        recorder.finish(20)
        events = list(recorder.events)
        recorder.kernel_started(1, 0, "late")
        recorder.finish(40)
        assert recorder.spans("kernel") == [
            event for event in events if event.get("cat") == "kernel"
        ]

    def test_finish_closes_open_spans(self):
        sim = FakeSim()
        recorder = TraceRecorder(sim)
        recorder.kernel_started(0, 0, "k")
        recorder.wavefront_started(7, cu_id=2, stream_id=0, kernel_id=0)
        sim.now = 99
        recorder.finish(99)
        kernels = recorder.spans("kernel")
        waves = recorder.spans("wavefront")
        assert len(kernels) == 1 and kernels[0]["args"]["interrupted"] is True
        assert len(waves) == 1 and waves[0]["args"]["open_at_finish"] is True
        assert not trace_errors(recorder.to_dict())

    def test_concurrent_wavefronts_get_separate_lanes(self):
        # wavefronts overlap in time on one CU; each must land on its own
        # lane row or the X-spans could not nest
        sim = FakeSim()
        recorder = TraceRecorder(sim)
        recorder.wavefront_started(1, cu_id=0, stream_id=0, kernel_id=0)
        sim.now = 10
        recorder.wavefront_started(2, cu_id=0, stream_id=0, kernel_id=0)
        sim.now = 50
        recorder.wavefront_finished(1)
        sim.now = 80
        recorder.wavefront_finished(2)
        spans = recorder.spans("wavefront")
        tids = {span["tid"] for span in spans}
        assert len(tids) == 2
        assert not trace_errors(recorder.to_dict())

    def test_lane_is_reused_after_release(self):
        sim = FakeSim()
        recorder = TraceRecorder(sim)
        recorder.wavefront_started(1, cu_id=3, stream_id=0, kernel_id=0)
        sim.now = 5
        recorder.wavefront_finished(1)
        recorder.wavefront_started(2, cu_id=3, stream_id=0, kernel_id=0)
        sim.now = 9
        recorder.wavefront_finished(2)
        spans = recorder.spans("wavefront")
        assert [span["tid"] for span in spans] == [3 * WAVE_LANE_STRIDE] * 2

    def test_truncation_cap(self):
        sim = FakeSim()
        recorder = TraceRecorder(sim, max_events=2)
        for index in range(5):
            recorder.kernel_boundary(index)
        assert len(recorder.events) == 2
        assert recorder.truncated
        assert recorder.to_dict()["otherData"]["truncated"] is True

    def test_to_dict_carries_process_metadata(self):
        sim = FakeSim()
        recorder = TraceRecorder(sim)
        recorder.set_topology(num_devices=2, cus_per_device=4)
        recorder.wavefront_started(1, cu_id=5, stream_id=0, kernel_id=0)
        recorder.wavefront_finished(1)
        blob = recorder.to_dict()
        names = {
            event["args"]["name"]
            for event in blob["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert {"streams", "device0", "device1"} <= names
        # cu 5 belongs to device 1 with 4 CUs per device
        (span,) = recorder.spans("wavefront")
        assert span["pid"] == 10 + 1
        assert not trace_errors(blob)


class TestTraceValidation:
    def test_rejects_non_object(self):
        assert trace_errors([1, 2]) != []
        assert trace_errors({"noTraceEvents": 1}) != []

    def _event(self, **overrides):
        event = {"name": "e", "cat": "c", "ph": "X", "ts": 0, "dur": 5,
                 "pid": 1, "tid": 1}
        event.update(overrides)
        return event

    def test_valid_nested_spans(self):
        blob = {"traceEvents": [
            self._event(ts=0, dur=100),
            self._event(name="inner", ts=10, dur=20),
            self._event(name="after", ts=200, dur=5),
        ]}
        assert trace_errors(blob) == []
        validate_trace(blob)  # must not raise

    def test_negative_duration(self):
        blob = {"traceEvents": [self._event(dur=-1)]}
        errors = trace_errors(blob)
        assert any("negative" in error for error in errors)
        with pytest.raises(ValueError):
            validate_trace(blob)

    def test_overlap_without_nesting(self):
        blob = {"traceEvents": [
            self._event(ts=0, dur=100),
            self._event(name="straddler", ts=50, dur=100),
        ]}
        errors = trace_errors(blob)
        assert any("overlap" in error for error in errors)

    def test_overlap_on_different_rows_is_fine(self):
        blob = {"traceEvents": [
            self._event(ts=0, dur=100, tid=1),
            self._event(ts=50, dur=100, tid=2),
        ]}
        assert trace_errors(blob) == []

    def test_missing_keys_and_unknown_phase(self):
        assert any(
            "missing" in error
            for error in trace_errors({"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]})
        )
        assert any(
            "unknown phase" in error
            for error in trace_errors({"traceEvents": [self._event(ph="Z")]})
        )
        assert any(
            "ts" in error
            for error in trace_errors({"traceEvents": [self._event(ts="soon")]})
        )

    def test_metadata_events_need_no_timestamp(self):
        blob = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "streams"}},
        ]}
        assert trace_errors(blob) == []


class TestMetricsSampler:
    def test_rejects_nonpositive_interval(self, sim, stats):
        with pytest.raises(ValueError):
            MetricsSampler(sim, stats, 0)

    def test_windows_sum_to_final_counters(self, sim, stats):
        sampler = MetricsSampler(sim, stats, interval_cycles=100)
        stats.add("setup.work", 7)  # pre-start counters land in window 0
        active = [True]

        def work(amount):
            stats.add("run.work", amount)

        for tick in range(1, 6):
            sim.schedule(tick * 60, functools.partial(work, tick))
        sim.schedule(360, lambda: active.__setitem__(0, False))
        sampler.start(lambda: active[0])
        sim.on_finish(sampler.finalize)
        sim.run()

        assert len(sampler.windows) >= 2
        assert windows_total(sampler.windows) == stats.counters()
        # windows tile the run: contiguous, ordered, no gaps
        edges = [(w["start"], w["end"]) for w in sampler.windows]
        assert edges[0][0] == 0
        for (_, prev_end), (start, _) in zip(edges, edges[1:]):
            assert start == prev_end

    def test_finalize_forces_one_window(self, sim, stats):
        sampler = MetricsSampler(sim, stats, interval_cycles=1000)
        sampler.finalize(0)
        assert len(sampler.windows) == 1
        assert sampler.windows[0]["counters"] == {}

    def test_double_start_rejected(self, sim, stats):
        sampler = MetricsSampler(sim, stats, interval_cycles=10)
        sampler.start(lambda: False)
        with pytest.raises(RuntimeError):
            sampler.start(lambda: False)

    def test_derive_window_signals(self):
        window = {
            "start": 0,
            "end": 100,
            "counters": {
                "l1.accesses": 10, "l1.hits": 5,
                "l2.accesses": 8, "l2.hits": 2,
                "topo.remote_requests": 3, "topo.local_requests": 9,
                "l2.blocked_mshr_full": 4, "l2.mshr_coalesced": 6,
                "gpu.mem_requests": 10,
                "stream0.mem_requests": 7, "stream1.mem_requests": 3,
            },
        }
        derived = derive_window(window)
        assert derived["l1_hit_rate"] == pytest.approx(0.5)
        assert derived["l2_hit_rate"] == pytest.approx(0.25)
        assert derived["remote_fraction"] == pytest.approx(0.25)
        assert derived["mshr_blocked"] == 4
        assert derived["stream_traffic"] == {0: 7, 1: 3}

    def test_derive_window_empty_ratios(self):
        derived = derive_window({"start": 0, "end": 1, "counters": {}})
        assert derived["l1_hit_rate"] == 0.0
        assert derived["remote_fraction"] == 0.0
        with pytest.raises(ValueError):
            derive_window({"start": 0, "end": 1})

    def test_derive_window_zero_access_window(self):
        # a quiet window (e.g. a stalled tenant): traffic counters moved but
        # no cache access did -- every ratio must come out 0.0, not NaN/raise
        window = {
            "start": 500,
            "end": 1000,
            "counters": {
                "l1.accesses": 0,
                "l1.hits": 0,
                "l2.accesses": 0,
                "dram.accesses": 12,
                "gpu.mem_requests": 0,
            },
        }
        derived = derive_window(window)
        assert derived["l1_hit_rate"] == 0.0
        assert derived["l2_hit_rate"] == 0.0
        assert derived["remote_fraction"] == 0.0
        assert derived["mem_requests"] == 0
        assert derived["stream_traffic"] == {}

    def test_derive_window_counters_absent_from_deltas(self):
        # the sampler records only counters that *moved* in the window, so a
        # window may carry hits without accesses (or neither); absent names
        # must read as zero rather than KeyError
        derived = derive_window(
            {"start": 0, "end": 10, "counters": {"l1.hits": 3, "dram.reads": 4}}
        )
        assert derived["l1_hit_rate"] == 0.0  # denominator absent -> 0, not 3/0
        assert derived["l2_hit_rate"] == 0.0
        assert derived["mshr_blocked"] == 0
        assert derived["mshr_coalesced"] == 0
        assert derived["mem_requests"] == 0

    def test_single_window_run_totals_and_derivation(self, sim, stats):
        # an interval longer than the whole run yields exactly one finalize
        # window whose deltas ARE the end-of-run counters
        sampler = MetricsSampler(sim, stats, interval_cycles=10_000)
        sampler.start(lambda: False)
        stats.add("l1.accesses", 8)
        stats.add("l1.hits", 2)
        sim.run()
        sampler.finalize(sim.now)
        assert len(sampler.windows) == 1
        window = sampler.windows[0]
        assert windows_total([window]) == {"l1.accesses": 8, "l1.hits": 2}
        derived = derive_window(window)
        assert derived["l1_hit_rate"] == pytest.approx(0.25)
        assert derived["start"] == 0 and derived["end"] == window["end"]


class TestProfiler:
    """The module table: ``cProfile`` self time summed per source file."""

    CACHE = os.path.join(os.path.dirname(repro.__file__), "memory", "cache.py")
    QUEUE = os.path.join(os.path.dirname(repro.__file__), "engine", "event_queue.py")

    def test_builtin_time_is_charged_to_its_callers_modules(self):
        access = (self.CACHE, 10, "access")
        drain = (self.QUEUE, 20, "run")
        stats = {
            access: (4, 4, 0.5, 0.875, {drain: (4, 4, 0.5, 0.875)}),
            drain: (1, 1, 0.25, 1.25, {}),
            ("~", 0, "<built-in method builtins.len>"): (
                6, 6, 0.5, 0.5,
                {access: (4, 4, 0.375, 0.375), drain: (2, 2, 0.125, 0.125)},
            ),
            ("/usr/lib/python3/json/encoder.py", 1, "encode"): (1, 1, 0.25, 0.25, {}),
            # no caller recorded: the time stays outside the package
            ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>"): (
                1, 1, 0.125, 0.125, {},
            ),
        }
        table = module_table(stats)
        assert table == {
            "memory/cache.py": 0.875,
            "engine/event_queue.py": 0.375,
            "python": 0.375,
        }
        assert list(table) == ["memory/cache.py", "engine/event_queue.py", "python"]

    def test_package_files_are_named_below_the_package(self):
        root = os.path.dirname(repro.__file__)
        stats = {
            (os.path.join(root, "engine", "event_queue.py"), 1, "run"): (1, 1, 0.5, 0.5, {}),
            (os.path.join(root, "session.py"), 1, "run"): (1, 1, 0.25, 0.25, {}),
            # a sibling directory sharing the package's name as a prefix
            (root + "_extra" + os.sep + "x.py", 1, "f"): (1, 1, 0.125, 0.125, {}),
            ("<frozen importlib._bootstrap>", 1, "_load"): (1, 1, 0.125, 0.125, {}),
        }
        assert module_table(stats) == {
            "engine/event_queue.py": 0.5,
            "python": 0.25,
            "session.py": 0.25,
        }

    def test_builtin_time_no_caller_holds_goes_to_python(self):
        access = (self.CACHE, 10, "access")
        stats = {
            access: (1, 1, 0.25, 0.75, {}),
            ("~", 0, "<built-in method builtins.sorted>"): (
                2, 2, 0.5, 0.5, {access: (1, 1, 0.375, 0.375)},
            ),
        }
        assert module_table(stats) == {"memory/cache.py": 0.625, "python": 0.125}

    def test_equal_rows_sort_by_name(self):
        stats = {
            (self.CACHE, 1, "access"): (1, 1, 0.25, 0.25, {}),
            (self.QUEUE, 1, "run"): (1, 1, 0.25, 0.25, {}),
            ("/usr/lib/python3/heapq.py", 1, "push"): (1, 1, 0.5, 0.5, {}),
        }
        assert list(module_table(stats)) == [
            "python", "engine/event_queue.py", "memory/cache.py",
        ]

    def test_profiled_run_matches_plain_run(self):
        def drive(profiled):
            sim = Simulator()
            order = []

            def work(label, left):
                order.append((sim.now, label))
                if left:
                    sim.schedule(3 + left, functools.partial(work, label, left - 1))

            for label in "abc":
                sim.schedule(1, functools.partial(work, label, 4))
            profiler = SimProfiler(sim.queue)
            if profiled:
                profiler.start()
            sim.run()
            profiler.stop()
            return order, sim.now, sim.queue.executed

        assert drive(profiled=True) == drive(profiled=False)

    def test_wall_time_accumulates_over_windows(self, sim):
        profiler = SimProfiler(sim.queue)
        profiler.start()
        profiler.stop()
        first = profiler.wall_seconds
        assert first > 0
        profiler.start()
        sim.schedule(1, lambda: None)
        sim.run()
        profiler.stop()
        assert profiler.wall_seconds > first
        assert profiler.events_per_second == pytest.approx(1 / profiler.wall_seconds)

    def test_stop_before_start_is_a_no_op(self, sim):
        profiler = SimProfiler(sim.queue)
        profiler.stop()
        assert profiler.wall_seconds == 0.0
        assert not profiling_active()

    def test_summary_stops_a_running_profile(self, sim):
        profiler = SimProfiler(sim.queue)
        profiler.start()
        assert profiling_active()
        summary = profiler.summary()
        assert not profiling_active()
        assert summary["wall_seconds"] == profiler.wall_seconds > 0

    def test_start_refuses_under_another_profiler(self, sim):
        def outer(frame, event, arg):
            return None

        sys.setprofile(outer)
        try:
            profiler = SimProfiler(sim.queue)
            assert profiling_active()
            with pytest.raises(RuntimeError, match="another profiler"):
                profiler.start()
            assert sys.getprofile() is outer
        finally:
            sys.setprofile(None)
        # the refused start left nothing running
        profiler.stop()
        assert profiler.wall_seconds == 0.0

    @pytest.mark.parametrize("tool", [None, "cProfile"])
    def test_the_monitoring_profiler_tool_counts_as_a_profiler(
        self, sim, monkeypatch, tool
    ):
        # from Python 3.12 cProfile claims this tool, not the profile hook
        class Monitoring:
            PROFILER_ID = 2

            @staticmethod
            def get_tool(tool_id):
                return tool if tool_id == 2 else None

        monkeypatch.setattr(sys, "monitoring", Monitoring, raising=False)
        assert profiling_active() is (tool is not None)
        profiler = SimProfiler(sim.queue)
        if tool is None:
            profiler.start()
            profiler.stop()
            assert profiler.wall_seconds > 0
        else:
            with pytest.raises(RuntimeError, match="another profiler"):
                profiler.start()
            assert profiler.wall_seconds == 0.0

    def test_a_failed_enable_starts_nothing(self, sim):
        class Taken:
            """3.12's cProfile when another tool holds the profiler slot."""

            def enable(self):
                raise ValueError("Another profiling tool is already active")

            def disable(self):
                raise AssertionError("disable() after a failed enable()")

        profiler = SimProfiler(sim.queue)
        profiler._profile = Taken()
        with pytest.raises(ValueError):
            profiler.start()
        profiler.stop()
        assert profiler.wall_seconds == 0.0

    def test_profiled_run_shares_sum_to_one(self, sim):
        def work(amount):
            if amount < 5:
                sim.schedule(10, functools.partial(work, amount + 1))

        sim.schedule(0, functools.partial(work, 1))
        profiler = SimProfiler(sim.queue)
        profiler.start()
        sim.run()
        profiler.stop()
        profiler.stop()  # idempotent
        summary = profiler.summary()
        assert summary["events"] == sim.queue.executed == 5
        assert summary["wall_seconds"] == profiler.wall_seconds > 0
        assert summary["events_per_second"] == pytest.approx(5 / profiler.wall_seconds)
        modules = summary["modules"]
        assert "engine/event_queue.py" in modules
        assert sum(row["share"] for row in modules.values()) == pytest.approx(1.0)
        assert summary["accounted_share"] > 0
        assert list(summary)[-1] == "accounted_share"

    def test_empty_profile_gives_an_empty_table(self, sim):
        assert module_table({}) == {}
        summary = SimProfiler(sim.queue).summary()
        assert summary["modules"] == {}
        assert summary["events"] == 0
        assert summary["events_per_second"] == 0.0
        assert summary["accounted_share"] == 0.0
