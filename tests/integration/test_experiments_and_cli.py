"""Integration tests for the experiment drivers, renderers and the CLI."""

from __future__ import annotations

import json
from operator import attrgetter

import pytest

from repro.config import scaled_config
from repro.core.policies import STATIC_POLICIES, UNCACHED
from repro.experiments import (
    STATIC_BEST,
    STATIC_WORST,
    ExperimentRunner,
    figure,
    measured_categories,
    render_series_table,
    table1_system_configuration,
    table2_workloads,
)
from repro.experiments.figures import FigureSpec, own_series, tabulate
from repro.experiments.render import render_kv_table
from repro import cli

#: a small but behaviourally diverse subset keeps integration tests fast
SUBSET = ("FwSoft", "FwAct", "SGEMM")
TINY = scaled_config(2)


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    return ExperimentRunner(scale=0.15, config=TINY, workload_names=SUBSET)


@pytest.fixture(scope="module")
def static_sweep(runner):
    return runner.sweep(policies=STATIC_POLICIES)


class TestRunner:
    def test_sweep_covers_grid(self, static_sweep):
        assert set(static_sweep.workloads()) == set(SUBSET)
        assert set(static_sweep.policies()) == {p.name for p in STATIC_POLICIES}

    def test_runs_are_memoized(self, runner, static_sweep):
        before = runner.cached_runs()
        runner.sweep(policies=STATIC_POLICIES)
        assert runner.cached_runs() == before

    def test_figure_for_unknown_workload_raises(self):
        unknown = ExperimentRunner(scale=0.15, config=TINY, workload_names=["NotAWorkload"])
        with pytest.raises(KeyError, match="unknown workload 'NotAWorkload'"):
            figure(6, unknown)


class TestStaticFigures:
    def test_figure6_normalizes_to_uncached(self, runner):
        data = figure(6, runner)
        for workload, series in data.items():
            assert series[UNCACHED.name] == pytest.approx(1.0)
            assert set(series) == {p.name for p in STATIC_POLICIES}

    def test_figure7_values_are_fractions_of_uncached(self, runner):
        data = figure(7, runner)
        for series in data.values():
            assert series[UNCACHED.name] == pytest.approx(1.0)
            assert all(value >= 0 for value in series.values())

    def test_figure8_uncached_has_fewest_stalls(self, runner):
        data = figure(8, runner)
        for series in data.values():
            assert series[UNCACHED.name] <= min(series.values()) + 1e-9

    def test_figure9_rates_are_probabilities(self, runner):
        data = figure(9, runner)
        for series in data.values():
            assert all(0.0 <= value <= 1.0 for value in series.values())

    def test_measured_categories_cover_subset(self, runner):
        categories = measured_categories(runner)
        assert set(categories) == set(SUBSET)

    def test_characterization_figures(self, runner):
        gvops = figure(4, runner)
        gmrs = figure(5, runner)
        assert set(gvops) == set(SUBSET)
        assert all(row["GVOPS"] >= 0 for row in gvops.values())
        assert all(row["GMR/s"] > 0 for row in gmrs.values())


class TestOptimizationFigures:
    def test_figure10_series_and_baseline(self, runner):
        data = figure(10, runner)
        for series in data.values():
            assert series[STATIC_BEST] == pytest.approx(1.0)
            assert series[STATIC_WORST] >= series[STATIC_BEST] - 1e-9
            assert "CacheRW-PCby" in series

    def test_figure11_normalized_to_uncached(self, runner):
        data = figure(11, runner)
        for series in data.values():
            assert all(value >= 0 for value in series.values())

    def test_figure12_and_13_shapes(self, runner):
        stalls = figure(12, runner)
        rows = figure(13, runner)
        assert set(stalls) == set(SUBSET) and set(rows) == set(SUBSET)
        for series in rows.values():
            assert all(0.0 <= value <= 1.0 for value in series.values())


class TestTablesAndRendering:
    def test_table1_contains_both_configurations(self):
        tables = table1_system_configuration()
        assert "simulated" in tables and "paper" in tables
        assert tables["paper"]["# of CUs"] == "64"

    def test_table2_lists_all_workloads(self):
        rows = table2_workloads(scale=0.1)
        assert len(rows) == 18

    def test_render_series_table_contains_all_cells(self):
        data = {"FwAct": {"A": 1.0, "B": 2.0}, "SGEMM": {"A": 0.5, "B": 0.25}}
        text = render_series_table("Title", data)
        assert "Title" in text and "FwAct" in text and "0.250" in text

    def test_render_handles_missing_series(self):
        text = render_series_table("T", {"W": {"A": 1.0}, "X": {"B": 2.0}})
        # the columns are every series seen; a row without one shows "-"
        assert text.splitlines()[3:] == [
            "W         1.000      -",
            "X             -  2.000",
        ]

    def test_render_kv_table(self):
        text = render_kv_table("Config", {"# of CUs": 8})
        assert "# of CUs" in text and "8" in text

    def test_render_empty_data(self):
        assert "(no data)" in render_series_table("T", {})


class TestCli:
    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        output = capsys.readouterr().out
        assert "FwAct" in output and "CacheRW-PCby" in output

    def test_run_command_json(self, capsys):
        code = cli.main(["--scale", "0.1", "--cus", "2", "run", "--workload", "FwSoft",
                         "--policy", "CacheR", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "FwSoft"
        assert data["policy"] == "CacheR"
        assert data["cycles"] > 0

    def test_sweep_all_simulates_only_the_requested_figures_policies(self, capsys):
        # Figure 4 needs CacheR and Figure 6 the three static policies:
        # three cells, not the six of the full grid
        code = cli.main(["--scale", "0.1", "--cus", "2", "sweep-all", "--no-cache",
                         "--workloads", "FwSoft", "--figures", "4", "6"])
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 4" in captured.out and "Figure 6" in captured.out
        assert "Figure 5" not in captured.out
        assert "[sweep-all] grid=1x3 jobs=1 store=disabled simulated=3 loaded=0" in captured.err

    @pytest.mark.parametrize("policy", [UNCACHED.name, "CacheR"])
    def test_run_json_dram_accesses_match_a_tabulated_sweep(self, policy, static_sweep, capsys):
        # raw DRAM counts per policy come from ``run --json`` on the CLI and
        # from ``runner.sweep`` + ``tabulate`` in Python; both read one report
        code = cli.main(["--scale", "0.15", "--cus", "2", "run", "--workload", "FwSoft",
                         "--policy", policy, "--json"])
        assert code == 0
        reported = json.loads(capsys.readouterr().out)["dram_accesses"]
        spec = FigureSpec("DRAM accesses", "{:.0f}", STATIC_POLICIES,
                          own_series(*(p.name for p in STATIC_POLICIES)),
                          attrgetter("dram_accesses"))
        assert reported > 0
        assert reported == tabulate(spec, static_sweep)["FwSoft"][policy]

    def test_table_commands(self, capsys):
        assert cli.main(["table", "1"]) == 0
        assert "Table 1" in capsys.readouterr().out
        assert cli.main(["--scale", "0.1", "table", "2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_unknown_workload_is_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli.main(["run", "--workload", "Nope", "--policy", "CacheR"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--workload", "FwSoft", "--policy", "Bogus"],
            ["trace", "--workload", "FwSoft", "--policy", "Bogus"],
            ["sweep-all", "--workloads", "Bogus"],
            ["sweep-all", "--figures", "Bogus"],
            ["adaptive", "--candidates", "Bogus"],
            ["adaptive", "--workloads", "Bogus"],
            ["topology", "--policies", "Bogus"],
            ["serve", "--policies", "Bogus"],
        ],
        ids=lambda argv: "-".join(argv[:1] + argv[-2:-1]),
    )
    def test_unknown_registry_name_exits_2_before_simulating(
        self, argv, monkeypatch, capsys
    ):
        def no_simulation(*_args, **_kwargs):
            raise AssertionError("simulated before rejecting the arguments")

        monkeypatch.setattr("repro.session.SimulationSession.run", no_simulation)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice: 'Bogus'" in capsys.readouterr().err

    def test_policy_names_stay_case_insensitive(self, capsys):
        code = cli.main(["--scale", "0.1", "--cus", "2", "run", "--workload", "FwSoft",
                         "--policy", "cacher", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["policy"] == "CacheR"

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "6"],
            ["sweep", "--workload", "FwSoft"],
            ["sweep-all", "--policies", "CacheR"],
            ["diff", "-1", "-2", "--markdown"],
            ["topology", "--remote-latency", "10"],
            ["topology", "--fabric-bandwidth", "1.0"],
            ["topology", "--interleave-lines", "4"],
            ["adaptive", "--leader-sets", "2"],
        ],
        ids=[
            "figure", "sweep", "sweep-all-policies", "diff-markdown", "topology-remote-latency",
            "topology-fabric-bandwidth", "topology-interleave-lines", "adaptive-leader-sets",
        ],
    )
    def test_retired_commands_and_flags_exit_2(self, argv, monkeypatch, capsys):
        def no_simulation(*_args, **_kwargs):
            raise AssertionError("simulated a retired command line")

        monkeypatch.setattr("repro.session.SimulationSession.run", no_simulation)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err

    def test_list_json_payload_keys(self, capsys):
        assert cli.main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "schema", "workloads", "policies", "adaptive", "topologies", "serving_mixes",
        }
        assert "fault_plans" not in payload

    def test_run_json_payload_keys(self, capsys):
        argv = ["--scale", "0.1", "--cus", "2",
                "run", "--workload", "FwSoft", "--policy", "CacheR", "--json"]
        assert cli.main(argv) == 0
        assert set(json.loads(capsys.readouterr().out)) == {
            "workload", "policy", "cycles", "seconds", "gvops", "gmrs",
            "gpu_mem_requests", "dram_accesses", "dram_reads", "dram_writes",
            "dram_row_hit_rate", "remote_fraction", "cache_stall_cycles",
            "cache_stalls_per_request", "l1_hit_rate", "l2_hit_rate", "kernels",
        }


class TestRetiredFaultAxis:
    """Fault injection is gone from every entry point, not just hidden.

    A stale script or pipeline that still asks for it must fail loudly
    instead of running a healthy simulation under a faulted label.
    """

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["faults", "--no-cache"], "invalid choice: 'faults'"),
            (
                ["trace", "--workload", "FwSoft", "--plan", "link-brownout"],
                "unrecognized arguments: --plan",
            ),
        ],
        ids=["faults-command", "trace-plan"],
    )
    def test_cli_rejects_fault_arguments(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["JobSpec", "simulate", "SimulationSession"])
    def test_run_entry_points_reject_a_faults_axis(self, entry):
        from repro import session, spec

        build = {
            "JobSpec": spec.JobSpec,
            "simulate": session.simulate,
            "SimulationSession": session.SimulationSession,
        }[entry]
        with pytest.raises(TypeError, match="faults"):
            build(faults=None)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.faults",
            "repro.faults.config",
            "repro.faults.injector",
            "repro.experiments.resilience",
        ],
    )
    def test_fault_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
