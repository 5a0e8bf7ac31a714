"""End-to-end telemetry: observers never perturb results, and their
artifacts are exact.

The acceptance contract pinned here:

* a run with tracing/metrics/profiling enabled reports counter-for-counter
  the same results as a disabled run (observers only read);
* the metrics windows tile the run and their deltas sum exactly to the
  end-of-run counters;
* the trace is valid Chrome trace-event JSON whose span population matches
  the run's counters (kernels completed, wavefronts started);
* metrics windows survive the report's serialization round-trip;
* the host profiler counts every executed event and accounts for nearly
  all of the profiled wall time, module by module.
"""

from __future__ import annotations

import cProfile
import json

import pytest

from repro import cli
from repro.config import scaled_config
from repro.session import SimulationSession
from repro.stats.report import RunReport
from repro.streams import MIX_NAMES, mix_by_name
from repro.telemetry import TelemetryConfig, trace_errors, windows_total
from repro.telemetry.profiler import profiling_active
from repro.topology import topology_by_name
from repro.workloads.registry import get_workload

CONFIG = scaled_config(2)
SCALE = 0.1
FULL_TELEMETRY = TelemetryConfig(trace=True, metrics_interval=2000, profile=True)


def _run(workload: str = "FwSoft", telemetry: TelemetryConfig | None = None):
    session = SimulationSession(
        policy="CacheRW", config=CONFIG, telemetry=telemetry
    )
    report = session.run(get_workload(workload, scale=SCALE))
    return session, report


class TestObserversDoNotPerturb:
    def test_full_telemetry_is_bit_identical(self):
        _, baseline = _run()
        _, observed = _run(telemetry=FULL_TELEMETRY)
        assert observed.cycles == baseline.cycles
        assert observed.counters == baseline.counters

    def test_profile_only_is_bit_identical(self):
        _, baseline = _run()
        session, observed = _run(telemetry=TelemetryConfig(profile=True))
        assert session.profiler is not None
        assert session.recorder is None and session.sampler is None
        assert observed.cycles == baseline.cycles
        assert observed.counters == baseline.counters

    def test_disabled_config_attaches_nothing(self):
        session, _ = _run(telemetry=TelemetryConfig())
        assert session.recorder is None
        assert session.sampler is None
        assert session.profiler is None

    def test_topology_serving_run_is_bit_identical(self):
        def run(telemetry):
            session = SimulationSession(
                policy="CacheRW",
                config=CONFIG,
                streams=mix_by_name("mha+fwlstm").scaled(SCALE),
                topology=topology_by_name("dual-chiplet"),
                telemetry=telemetry,
            )
            return session, session.run()

        _, baseline = run(None)
        session, observed = run(FULL_TELEMETRY)
        assert observed.cycles == baseline.cycles
        assert observed.counters == baseline.counters
        assert session.recorder is not None


class TestMetricsExactness:
    def test_windows_sum_to_report_counters(self):
        session, report = _run(telemetry=TelemetryConfig(metrics_interval=1500))
        assert report.metrics  # at least one window
        assert windows_total(report.metrics) == report.counters
        # windows tile [0, final] contiguously
        assert report.metrics[0]["start"] == 0
        for previous, current in zip(report.metrics, report.metrics[1:]):
            assert current["start"] == previous["end"]
        assert report.metrics[-1]["end"] >= report.cycles

    def test_metrics_round_trip_through_serialization(self):
        _, report = _run(telemetry=TelemetryConfig(metrics_interval=1500))
        rebuilt = RunReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert rebuilt.metrics == report.metrics
        assert windows_total(rebuilt.metrics) == rebuilt.counters

    def test_plain_report_has_no_metrics_key(self):
        _, report = _run()
        assert report.metrics == []
        assert "metrics" not in report.to_dict()


class TestTraceContents:
    def test_trace_valid_and_span_population_matches_counters(self):
        session, report = _run(telemetry=FULL_TELEMETRY)
        recorder = session.recorder
        blob = recorder.to_dict()
        assert trace_errors(blob) == []
        assert len(recorder.spans("kernel")) == report.counters["gpu.kernels_completed"]
        assert (
            len(recorder.spans("wavefront"))
            == report.counters["gpu.wavefronts_started"]
        )
        # spans stay inside the run and never extend past completion
        for span in recorder.spans():
            assert span["ts"] >= 0
            assert span["ts"] + span["dur"] <= report.cycles

    def test_serving_trace_has_one_row_per_stream(self):
        session = SimulationSession(
            policy="CacheRW",
            config=CONFIG,
            streams=mix_by_name("mha+fwlstm").scaled(SCALE),
            telemetry=TelemetryConfig(trace=True),
        )
        session.run()
        kernel_rows = {span["tid"] for span in session.recorder.spans("kernel")}
        assert kernel_rows == {0, 1}

    @pytest.mark.parametrize("mix_name", MIX_NAMES)
    def test_completed_serving_run_closes_every_kernel_span(self, mix_name):
        session = SimulationSession(
            policy="CacheRW",
            config=CONFIG,
            streams=mix_by_name(mix_name).scaled(SCALE),
            telemetry=TelemetryConfig(trace=True),
        )
        report = session.run()
        kernels = session.recorder.spans("kernel")
        assert len(kernels) == report.counters["gpu.kernels_completed"]
        assert not [span for span in kernels if "interrupted" in span["args"]]
        assert trace_errors(session.recorder.to_dict()) == []


class TestProfiler:
    def test_profile_covers_the_run_by_module(self):
        # FwAct blocks on full MSHR files; its polls fire as poll groups,
        # each one callback standing for several events
        session, report = _run("FwAct", telemetry=TelemetryConfig(profile=True))
        assert report.get("l1.blocked_mshr_full") > 0
        assert not profiling_active()  # run() stopped the profiler
        summary = session.profiler.summary()
        assert summary["events"] == session.sim.queue.executed
        assert summary["wall_seconds"] > 0
        assert "memory/cache.py" in summary["modules"]
        assert summary["accounted_share"] >= 0.9

    def test_a_failing_run_stops_the_profiler(self):
        session = SimulationSession(
            policy="CacheRW", config=CONFIG, telemetry=TelemetryConfig(profile=True)
        )
        with pytest.raises(ValueError, match="needs a workload"):
            session.run()
        assert not profiling_active()

    def test_refuses_to_nest_inside_another_profiler(self):
        def after_the_refusal():
            return None

        outer = cProfile.Profile()
        outer.enable()
        try:
            with pytest.raises(RuntimeError, match="another profiler"):
                _run(telemetry=TelemetryConfig(profile=True))
            assert profiling_active()
            after_the_refusal()
        finally:
            outer.disable()
        # the outer profile kept recording through the refused start
        outer.create_stats()
        assert any(name == "after_the_refusal" for _f, _l, name in outer.stats)


class TestCliTelemetry:
    def test_trace_subcommand_writes_valid_artifacts(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        telemetry_path = tmp_path / "telemetry.json"
        code = cli.main([
            "--scale", "0.1", "--cus", "2",
            "trace", "--workload", "FwSoft",
            "--metrics-interval", "2000",
            "--out", str(trace_path),
            "--telemetry-out", str(telemetry_path),
            "--json",
        ])
        assert code == 0
        blob = json.loads(trace_path.read_text())
        assert trace_errors(blob) == []
        assert blob["otherData"]["metricsWindows"]
        telemetry = json.loads(telemetry_path.read_text())
        assert telemetry["command"] == "trace"
        assert telemetry["profiler"]["events"] > 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kernel_spans"] >= 1
        assert summary["mem_latency_p50"] <= summary["mem_latency_p99"]

    def test_trace_text_output_lists_the_top_modules(self, tmp_path, capsys):
        code = cli.main([
            "--scale", "0.1", "--cus", "2",
            "trace", "--workload", "FwSoft", "--out", str(tmp_path / "trace.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Host self time, top modules" in out
        assert "memory/cache.py" in out

    def test_trace_mix_records_windows_and_alerts(self, tmp_path, capsys):
        trace_path = tmp_path / "mix.json"
        code = cli.main([
            "--scale", "0.1", "--cus", "2",
            "trace", "--mix", "mha+fwlstm",
            "--metrics-interval", "2000", "--alerts",
            "--out", str(trace_path), "--json",
        ])
        assert code == 0
        blob = json.loads(trace_path.read_text())
        assert trace_errors(blob) == []
        assert blob["otherData"]["metricsWindows"]
        assert "alerts" in json.loads(capsys.readouterr().out)

    def test_run_without_telemetry_flags_matches_plain_run(self, capsys):
        argv = ["--scale", "0.1", "--cus", "2",
                "run", "--workload", "FwSoft", "--policy", "CacheRW", "--json"]
        assert cli.main(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        assert "metrics" not in plain

    def test_metrics_interval_must_be_non_negative(self):
        with pytest.raises(SystemExit):
            cli.main([
                "trace", "--workload", "FwSoft", "--metrics-interval", "-5",
            ])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--workload", "FwSoft", "--policy", "CacheRW", "--trace-out", "t.json"],
            ["run", "--workload", "FwSoft", "--policy", "CacheRW", "--metrics-interval", "2000"],
            ["serve", "--mix", "mha+fwlstm", "--trace-out", "t.json"],
            ["serve", "--mix", "mha+fwlstm", "--metrics-interval", "2000"],
            ["serve", "--mix", "mha+fwlstm", "--alerts"],
        ],
    )
    def test_only_trace_attaches_in_run_observers(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_telemetry_reports_the_executor_workers(self, tmp_path, capsys):
        telemetry_path = tmp_path / "exec.json"
        code = cli.main([
            "--scale", "0.1", "--cus", "2",
            "sweep-all", "--no-cache", "--jobs", "2", "--workloads", "FwSoft",
            "--telemetry-out", str(telemetry_path),
        ])
        assert code == 0
        executor = json.loads(telemetry_path.read_text())["executor"]
        assert executor["workers"] == 2
        assert executor["runs_simulated"] > 0
        assert executor["jobs_timed"] == executor["runs_simulated"]
        assert 0.0 <= executor["worker_utilization"] <= 1.0
