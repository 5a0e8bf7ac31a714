"""End-to-end tests of the online adaptive policy subsystem.

Small scales keep these fast; the full-scale 18-workload comparison (the
acceptance measurement) runs in ``benchmarks/test_fig14_adaptive.py``.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.adaptive import AdaptiveConfig
from repro.config import scaled_config
from repro.core.policies import CACHE_R, CACHE_RW, UNCACHED
from repro.experiments import (
    ExperimentRunner,
    JobSpec,
    adaptive_summary,
    adaptive_sweep,
    figure14_adaptive,
)
from repro.experiments.adaptive import DYNAMIC, geomean
from repro.experiments.jobs import SweepExecutor
from repro.session import SimulationSession, simulate
from repro.workloads.registry import get_workload

TINY = scaled_config(2)

#: a fast adaptive configuration for miniature test runs
FAST = AdaptiveConfig(epoch_cycles=500, min_leader_accesses=8)


@pytest.fixture(scope="module")
def dynamic_report():
    return simulate(get_workload("FwSoft", scale=0.3), adaptive=FAST, config=TINY)


class TestDynamicSimulation:
    def test_report_carries_the_dynamic_label_and_counters(self, dynamic_report):
        assert dynamic_report.policy == "Dynamic"
        assert dynamic_report.cycles > 0
        counters = dynamic_report.counters
        assert counters.get("adaptive.decisions", 0) > 0
        assert any(name.startswith("adaptive.duel.") for name in counters)
        assert any(name.startswith("adaptive.kernels_under.") for name in counters)

    def test_dynamic_runs_are_deterministic(self, dynamic_report):
        again = simulate(get_workload("FwSoft", scale=0.3), adaptive=FAST, config=TINY)
        assert again.to_dict() == dynamic_report.to_dict()

    def test_controller_history_starts_at_the_initial_policy(self):
        session = SimulationSession(adaptive=FAST, config=TINY)
        session.run(get_workload("FwSoft", scale=0.2))
        history = session.controller.history
        assert history[0] == (0, FAST.initial_policy.name)
        assert all(cycle >= 0 for cycle, _name in history)

    def test_dynamic_stays_at_or_below_static_worst_on_reuse_workload(self):
        """The acceptance property, in miniature, on a reuse-heavy kernel."""
        workload = lambda: get_workload("FwSoft", scale=0.5)  # noqa: E731
        static = {
            policy.name: simulate(workload(), policy, config=TINY).cycles
            for policy in (UNCACHED, CACHE_R, CACHE_RW)
        }
        dynamic = simulate(workload(), adaptive=FAST, config=TINY).cycles
        assert dynamic <= max(static.values()) * 1.02

    def test_mid_kernel_switching_runs_to_completion(self):
        config = AdaptiveConfig(
            epoch_cycles=500, min_leader_accesses=8, mid_kernel_switching=True
        )
        report = simulate(get_workload("FwLSTM", scale=0.05), adaptive=config, config=TINY)
        assert report.cycles > 0

    def test_session_without_policy_or_adaptive_raises(self):
        with pytest.raises(ValueError):
            SimulationSession(config=TINY)


class TestAdaptiveJobs:
    def test_adaptive_job_round_trips_through_the_executor(self, tmp_path):
        runner = ExperimentRunner(
            scale=0.2, config=TINY, workload_names=("FwSoft",),
            cache_dir=str(tmp_path / "store"),
        )
        cold = adaptive_sweep(runner, FAST)
        assert runner.runs_simulated == 1
        # the study's cell is an ordinary job: asking the runner for it
        # again is a memo hit
        job = JobSpec(
            workload="FwSoft", policy=FAST.initial_policy, scale=0.2, config=TINY,
            adaptive=FAST,
        )
        assert runner.run([job]) == [cold["FwSoft"]]
        assert runner.runs_simulated == 1 and runner.memo_hits == 1
        warm_runner = ExperimentRunner(
            scale=0.2, config=TINY, workload_names=("FwSoft",),
            cache_dir=str(tmp_path / "store"),
        )
        warm = adaptive_sweep(warm_runner, FAST)
        assert warm_runner.runs_simulated == 0 and warm_runner.runs_loaded == 1
        assert warm["FwSoft"].to_dict() == cold["FwSoft"].to_dict()

    def test_adaptive_config_changes_the_job_fingerprint(self):
        base = JobSpec(workload="FwSoft", policy=CACHE_R, scale=0.2, config=TINY)
        adaptive = JobSpec(
            workload="FwSoft", policy=CACHE_R, scale=0.2, config=TINY, adaptive=FAST
        )
        retuned = JobSpec(
            workload="FwSoft", policy=CACHE_R, scale=0.2, config=TINY,
            adaptive=AdaptiveConfig(epoch_cycles=501, min_leader_accesses=8),
        )
        assert base.fingerprint() != adaptive.fingerprint()
        assert adaptive.fingerprint() != retuned.fingerprint()
        assert adaptive.summary()["adaptive"] == "Dynamic"

    def test_the_executor_honours_the_adaptive_field(self):
        job = JobSpec(workload="FwSoft", policy=CACHE_R, scale=0.2, config=TINY,
                      adaptive=FAST)
        (report,) = SweepExecutor().run([job])
        assert report.policy == "Dynamic"


class TestFigure14:
    @pytest.fixture(scope="class")
    def figure(self):
        runner = ExperimentRunner(
            scale=0.2, config=TINY, workload_names=("FwSoft", "MHA", "FwAct")
        )
        return figure14_adaptive(runner, adaptive_config=FAST)

    def test_series_and_baseline(self, figure):
        for series in figure.values():
            assert series["StaticBest"] == pytest.approx(1.0)
            assert series["StaticWorst"] >= 1.0 - 1e-9
            assert series[DYNAMIC] > 0
            assert "CacheRW-PCby" in series

    def test_summary_covers_all_and_per_category_groups(self, figure):
        summary = adaptive_summary(figure)
        assert "All" in summary
        assert "Reuse Sensitive" in summary  # FwSoft and MHA
        assert summary["All"]["StaticBest"] == pytest.approx(1.0)

    def test_geomean_helper(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestCliAdaptive:
    def test_adaptive_command_prints_figure_and_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "figure14.json"
        code = cli.main(
            [
                "--scale", "0.15", "--cus", "2",
                "adaptive", "--workloads", "FwSoft", "MHA",
                "--epoch-cycles", "500", "--no-cache",
                "--json-out", str(out_file),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 14" in output and "Dynamic" in output
        blob = json.loads(out_file.read_text())
        assert blob["schema"] == 1
        assert set(blob["figure14"]) == {"FwSoft", "MHA"}
        assert "All" in blob["summary"]

    def test_adaptive_command_accepts_candidate_subset(self, capsys):
        code = cli.main(
            [
                "--scale", "0.1", "--cus", "2",
                "adaptive", "--workloads", "FwSoft",
                "--candidates", "Uncached", "CacheR",
                "--epoch-cycles", "500", "--no-cache",
            ]
        )
        assert code == 0
        assert "Figure 14" in capsys.readouterr().out
