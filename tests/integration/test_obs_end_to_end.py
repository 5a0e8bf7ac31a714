"""End-to-end pins for the cross-run observability layer.

Three contracts, each exercised on real simulations:

* **bit-identity** -- attaching the post-run observers (ledger append,
  anomaly detection, or both) to a session must leave the simulated
  results counter-for-counter identical to a plain run; a disabled
  ``TelemetryConfig`` must keep the serialized report blob byte-identical
  too.  Alerts work from the library as from the CLI: they bring their
  own metrics windows when no interval is given.
* **zero drift** -- two runs of the same spec produce the same
  fingerprint, and ``diff`` over their ledger entries reports
  ``identical`` with zero changed counters (exit 0 under
  ``--fail-on-drift``).
* **CLI round trip** -- ``run --ledger`` feeds ``ledger list/show``, and
  ``diff`` works through ``main()`` with real exit codes.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.accel import SamplingConfig, ShardConfig
from repro.config import scaled_config
from repro.core.policies import policy_by_name
from repro.core.reuse_predictor import PredictorConfig
from repro.experiments.jobs import JobSpec
from repro.obs import RunLedger
from repro.session import SimulationSession, simulate
from repro.streams import StreamConfig, mix_by_name
from repro.telemetry import TelemetryConfig
from repro.telemetry.config import ALERT_METRICS_INTERVAL
from repro.workloads.registry import get_workload

CONFIG = scaled_config(2)
SCALE = 0.1


def _run(telemetry: TelemetryConfig | None = None, workload: str = "FwSoft"):
    session = SimulationSession(policy="CacheRW", config=CONFIG, telemetry=telemetry)
    report = session.run(get_workload(workload, scale=SCALE))
    return session, report


class TestObsBitIdentity:
    def test_full_obs_run_is_counter_identical(self, tmp_path):
        _, baseline = _run()
        telemetry = TelemetryConfig(ledger_path=str(tmp_path / "ledger.jsonl"), alerts=True)
        _, observed = _run(telemetry=telemetry)
        assert observed.cycles == baseline.cycles
        assert observed.counters == baseline.counters

    def test_disabled_obs_blob_is_byte_identical(self):
        _, baseline = _run()
        _, observed = _run(telemetry=TelemetryConfig())
        assert json.dumps(observed.to_dict(), sort_keys=True) == json.dumps(
            baseline.to_dict(), sort_keys=True
        )

    def test_ledger_only_obs_adds_no_report_keys(self, tmp_path):
        _, baseline = _run()
        _, observed = _run(telemetry=TelemetryConfig(ledger_path=str(tmp_path / "l.jsonl")))
        assert observed.to_dict() == baseline.to_dict()


class TestLibraryAlerts:
    """``TelemetryConfig(alerts=True)`` alone gives the detectors windows."""

    @staticmethod
    def _serve(**telemetry):
        return simulate(
            policy="CacheRW",
            streams=mix_by_name("mha+fwlstm"),
            config=scaled_config(4),
            telemetry=TelemetryConfig(**telemetry),
        )

    def test_alerts_without_an_interval_match_the_default_windows(self):
        implied = self._serve(alerts=True)
        explicit = self._serve(alerts=True, metrics_interval=ALERT_METRICS_INTERVAL)
        assert implied.metrics and implied.metrics == explicit.metrics
        assert implied.alerts == explicit.alerts
        kinds = {alert["kind"] for alert in implied.alerts}
        assert kinds == {"hit_rate_cliff", "stream_starvation"}

    def test_an_explicit_interval_wins(self):
        report = self._serve(alerts=True, metrics_interval=2 * ALERT_METRICS_INTERVAL)
        assert report.metrics[0]["end"] - report.metrics[0]["start"] == 2 * ALERT_METRICS_INTERVAL

    def test_ledger_only_run_writes_no_telemetry_block(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        _run(telemetry=TelemetryConfig(ledger_path=str(path)))
        _run(telemetry=TelemetryConfig(ledger_path=str(path), alerts=True))
        ledger_only, alerted = RunLedger(path).entries()
        assert "telemetry" not in ledger_only
        assert alerted["telemetry"]["metrics_windows"] > 0
        assert alerted["telemetry"]["trace"] is False

    def test_alerts_land_on_the_trace_timeline(self):
        session = SimulationSession(
            policy="CacheRW",
            streams=mix_by_name("mha+fwlstm"),
            config=scaled_config(4),
            telemetry=TelemetryConfig(trace=True, alerts=True),
        )
        report = session.run()
        assert session.recorder is not None and report.alerts
        instants = [
            (event["name"], event["ts"])
            for event in session.recorder.to_dict()["traceEvents"]
            if event.get("cat") == "alert"
        ]
        assert instants == [(alert["kind"], alert["cycle"]) for alert in report.alerts]

    @pytest.mark.parametrize("entry", [simulate, SimulationSession])
    @pytest.mark.parametrize("retired", ["obs", "dbi_max_rows"])
    def test_retired_keywords_are_refused_not_ignored(self, entry, retired):
        with pytest.raises(TypeError, match=retired):
            entry(policy="CacheRW", config=CONFIG, **{retired: None})

    @pytest.mark.parametrize(
        "telemetry",
        [TelemetryConfig(alerts=True), TelemetryConfig(ledger_path="ledger.jsonl")],
        ids=["alerts", "ledger"],
    )
    def test_sharded_runs_refuse_post_run_observers(self, telemetry):
        tenants = (StreamConfig(workload="FwSoft", scale=0.1, cu_share="partitioned"),) * 2
        with pytest.raises(ValueError, match="telemetry observers"):
            simulate(
                policy="CacheRW",
                streams=tenants,
                shards=ShardConfig(num_shards=2),
                config=CONFIG,
                telemetry=telemetry,
            )


class TestLedgerZeroDrift:
    def test_same_spec_runs_share_fingerprint_and_diff_clean(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        telemetry = TelemetryConfig(ledger_path=str(path))
        _run(telemetry=telemetry)
        _run(telemetry=telemetry)

        ledger = RunLedger(path)
        entries = ledger.entries()
        assert len(entries) == 2
        assert entries[0]["fingerprint"] == entries[1]["fingerprint"]
        assert entries[0]["kind"] == "run"
        assert entries[0]["counters"] == entries[1]["counters"]
        assert entries[0]["job"] == entries[1]["job"]

    def test_different_policy_changes_fingerprint(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        telemetry = TelemetryConfig(ledger_path=str(path))
        _run(telemetry=telemetry)
        session = SimulationSession(policy="CacheR", config=CONFIG, telemetry=telemetry)
        session.run(get_workload("FwSoft", scale=SCALE))
        a, b = RunLedger(path).entries()
        assert a["fingerprint"] != b["fingerprint"]


class TestLedgerRunIdentity:
    """A session run's ledger fingerprint is its JobSpec store key, so two
    runs share a fingerprint exactly when they are the same cell."""

    @staticmethod
    def _fingerprint(tmp_path, workload="FwSoft", scale=SCALE, **axes):
        path = tmp_path / "ledger.jsonl"
        session = SimulationSession(
            config=CONFIG, telemetry=TelemetryConfig(ledger_path=str(path)), **axes
        )
        session.run(get_workload(workload, scale=scale))
        return RunLedger(path).entries()[-1]["fingerprint"]

    @pytest.mark.parametrize(
        ("label", "policy", "axes"),
        [
            ("sampling", "CacheRW", {"sampling": SamplingConfig()}),
            (
                "predictor_config",
                "CacheRW-PCby",
                {"predictor_config": PredictorConfig(table_entries=64)},
            ),
        ],
    )
    def test_each_axis_splits_the_fingerprint(self, tmp_path, label, policy, axes):
        plain = self._fingerprint(tmp_path, policy=policy)
        assert self._fingerprint(tmp_path, policy=policy, **axes) != plain, label

    def test_scale_splits_the_fingerprint(self, tmp_path):
        assert self._fingerprint(tmp_path, policy="CacheRW") != self._fingerprint(
            tmp_path, policy="CacheRW", scale=2 * SCALE
        )

    def test_cli_runs_at_two_scales_do_not_collide(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        assert _cli_run(ledger_path) == 0
        assert _cli_run(ledger_path, scale=2 * SCALE) == 0
        first, second = RunLedger(ledger_path).entries()
        assert first["fingerprint"] != second["fingerprint"]
        assert (first["job"]["scale"], second["job"]["scale"]) == (SCALE, 2 * SCALE)
        capsys.readouterr()

    def test_run_entry_fingerprint_is_the_sweep_store_key(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        assert _cli_run(ledger_path) == 0
        (entry,) = RunLedger(ledger_path).entries()
        cell = JobSpec(
            workload="FwSoft", policy=policy_by_name("CacheRW"), scale=SCALE, config=CONFIG
        )
        assert entry["fingerprint"] == cell.fingerprint()
        assert entry["job"] == cell.summary()


def _cli_run(ledger_path, extra=(), scale=SCALE):
    return cli.main(
        [
            "--scale",
            str(scale),
            "--cus",
            "2",
            "run",
            "--workload",
            "FwSoft",
            "--policy",
            "CacheRW",
            "--ledger",
            str(ledger_path),
            *extra,
        ]
    )


class TestCliLedgerAndDiff:
    def test_run_ledger_list_show_diff(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        assert _cli_run(ledger_path) == 0
        assert _cli_run(ledger_path) == 0
        capsys.readouterr()

        assert cli.main(["ledger", "list", "--ledger", str(ledger_path)]) == 0
        listing = capsys.readouterr().out
        assert "FwSoft" in listing and "CacheRW" in listing

        assert (
            cli.main(["ledger", "show", "-1", "--ledger", str(ledger_path), "--json"])
            == 0
        )
        entry = json.loads(capsys.readouterr().out)
        assert entry["kind"] == "run" and entry["workload"] == "FwSoft"
        assert entry["counters"]

        # the zero-drift contract: identical spec => identical counters
        code = cli.main(
            ["diff", "-1", "-2", "--ledger", str(ledger_path), "--fail-on-drift"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "identical" in out.lower()

        code = cli.main(
            ["diff", "-1", "-2", "--ledger", str(ledger_path), "--json"]
        )
        diff = json.loads(capsys.readouterr().out)
        assert code == 0
        assert diff["identical"] is True
        assert diff["counters"]["changed"] == 0

    def test_diff_detects_real_drift(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        assert _cli_run(ledger_path) == 0
        assert (
            cli.main(
                [
                    "--scale",
                    str(SCALE),
                    "--cus",
                    "2",
                    "run",
                    "--workload",
                    "FwSoft",
                    "--policy",
                    "CacheR",
                    "--ledger",
                    str(ledger_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = cli.main(
            ["diff", "-1", "-2", "--ledger", str(ledger_path), "--fail-on-drift"]
        )
        assert code == 1  # CacheR vs CacheRW genuinely drifts
        capsys.readouterr()

    def test_ledger_show_unknown_ref_exits_2(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        assert _cli_run(ledger_path) == 0
        capsys.readouterr()
        assert (
            cli.main(["ledger", "show", "feedbeef", "--ledger", str(ledger_path)]) == 2
        )
        capsys.readouterr()

    def test_ledger_prune_keep(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        for _ in range(3):
            assert _cli_run(ledger_path) == 0
        assert (
            cli.main(["ledger", "prune", "--ledger", str(ledger_path), "--keep", "1"])
            == 0
        )
        capsys.readouterr()
        assert len(RunLedger(ledger_path)) == 1


class TestCliAlerts:
    def test_run_alerts_json_reports_quiet_run(self, tmp_path, capsys):
        code = cli.main(
            [
                "--scale",
                str(SCALE),
                "--cus",
                "2",
                "run",
                "--workload",
                "FwSoft",
                "--policy",
                "CacheRW",
                "--alerts",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        # a healthy single-tenant run fires nothing, and the quiet verdict
        # is announced on stderr, never stdout
        assert payload.get("alerts", []) == []
        assert "alerts" in captured.err

    def test_run_alerts_sample_the_default_windows(self, capsys):
        argv = ["--scale", "0.6", "--cus", "2", "run", "--workload", "FwSoft"]
        code = cli.main([*argv, "--policy", "CacheRW", "--alerts", "--json"])
        windows = json.loads(capsys.readouterr().out)["metrics"]
        assert code == 0 and len(windows) > 2
        starts = [window["start"] for window in windows]
        assert starts == [index * ALERT_METRICS_INTERVAL for index in range(len(windows))]

    def test_cli_ledger_only_run_writes_no_telemetry_block(self, tmp_path, capsys):
        assert _cli_run(tmp_path / "ledger.jsonl") == 0
        assert _cli_run(tmp_path / "ledger.jsonl", extra=("--alerts",)) == 0
        capsys.readouterr()
        plain, alerted = RunLedger(tmp_path / "ledger.jsonl").entries()
        assert "telemetry" not in plain
        assert alerted["telemetry"] == {
            "metrics_windows": 1,
            "profile": False,
            "trace": False,
            "trace_truncated": False,
        }

    def test_alerted_run_counters_match_plain_run(self, tmp_path, capsys):
        for extra in ((), ("--alerts",)):
            assert _cli_run(tmp_path / "ledger.jsonl", extra=extra) == 0
        capsys.readouterr()
        a, b = RunLedger(tmp_path / "ledger.jsonl").entries()
        assert a["fingerprint"] == b["fingerprint"]
        assert a["counters"] == b["counters"]


class TestSweepLedger:
    def test_sweep_records_jobs_and_aggregate(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        code = cli.main(
            [
                "--scale",
                str(SCALE),
                "--cus",
                "2",
                "sweep",
                "--workload",
                "FwSoft",
                "--policies",
                "CacheR",
                "CacheRW",
                "--cache-dir",
                str(tmp_path / "store"),
                "--ledger",
                str(ledger_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        entries = RunLedger(ledger_path).entries()
        kinds = [entry["kind"] for entry in entries]
        assert kinds.count("job") == 2
        assert kinds.count("sweep") == 1
        sweep = [entry for entry in entries if entry["kind"] == "sweep"][-1]
        assert sweep["telemetry"]["runs_simulated"] == 2
        assert "worker_utilization" in sweep["telemetry"]

    def test_warm_sweep_skips_job_entries_but_logs_aggregate(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        argv = [
            "--scale",
            str(SCALE),
            "--cus",
            "2",
            "sweep",
            "--workload",
            "FwSoft",
            "--policies",
            "CacheRW",
            "--cache-dir",
            str(tmp_path / "store"),
            "--ledger",
            str(ledger_path),
        ]
        assert cli.main(list(argv)) == 0
        assert cli.main(list(argv)) == 0
        capsys.readouterr()
        entries = RunLedger(ledger_path).entries()
        # the warm pass replays from the store: job entries are only written
        # for *simulated* cells (the ledger already holds the cold pass), so
        # the second sweep contributes an aggregate entry only
        jobs = [entry for entry in entries if entry["kind"] == "job"]
        sweeps = [entry for entry in entries if entry["kind"] == "sweep"]
        assert len(jobs) == 1
        assert jobs[0]["fingerprint"]  # the store key doubles as identity
        assert len(sweeps) == 2
        assert sweeps[0]["telemetry"]["runs_simulated"] == 1
        assert sweeps[0]["telemetry"]["runs_loaded"] == 0
        assert sweeps[1]["telemetry"]["runs_simulated"] == 0
        assert sweeps[1]["telemetry"]["runs_loaded"] == 1
        assert sweeps[1]["telemetry"]["store_hit_rate"] == 1.0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
