"""Unit tests for the cross-run observability layer (:mod:`repro.obs`).

Covers the pieces the layer is built from -- the append-only run ledger,
counter diffing and the anomaly detectors -- plus the JSONL plumbing
they share.  Every test here is
synthetic (no simulations): the end-to-end behaviour on real runs is
pinned by ``tests/integration/test_obs_end_to_end.py``.
"""

from __future__ import annotations

import json

import pytest

from repro import ioutil
from repro.ioutil import append_jsonl, read_jsonl
from repro.obs.alerts import (
    HIT_RATE_CLIFF,
    MIN_WINDOW_ACCESSES,
    STARVATION_SHARE,
    Alert,
    detect_anomalies,
)
from repro.obs.diff import diff_reports, render_diff_table, resolve_report
from repro.obs.ledger import RunLedger, run_entry
from repro.stats.report import RunReport


# ----------------------------------------------------------------------
# jsonl plumbing
# ----------------------------------------------------------------------
class TestJsonlPlumbing:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "x.jsonl"
        append_jsonl(path, {"a": 1})
        append_jsonl(path, {"b": 2})
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_read_tolerates_torn_tail_and_garbage(self, tmp_path):
        path = tmp_path / "x.jsonl"
        append_jsonl(path, {"a": 1})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn": tru')  # crashed writer mid-record
        assert read_jsonl(path) == [{"a": 1}]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl") == []


# ----------------------------------------------------------------------
# run ledger
# ----------------------------------------------------------------------
def _entry(index: int = 0) -> dict:
    return run_entry(
        kind="run",
        fingerprint_hex=f"{index:02d}" + "ab" * 31,
        workload="CM",
        policy="CacheRW",
        cycles=1000 + index,
        counters={"l2.hits": 10 + index},
        wall_seconds=0.5,
        events=1000,
    )


class TestRunLedger:
    def test_record_stamps_provenance(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        stamped = ledger.record(_entry())
        assert stamped["schema"] == 1
        assert isinstance(stamped["ts"], float)
        assert stamped["python"] and stamped["host"] is not None
        assert stamped["events_per_sec"] == 2000
        assert len(ledger) == 1
        assert ledger.entries()[0] == stamped

    def test_run_entry_omits_absent_fields(self):
        entry = run_entry(kind="sweep", fingerprint_hex=None, workload="x", policy="*")
        assert "cycles" not in entry and "counters" not in entry
        assert "wall_seconds" not in entry and "alerts" not in entry

    def test_find_by_index_and_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for index in range(3):
            ledger.record(_entry(index))
        assert ledger.find("-1")["cycles"] == 1002
        assert ledger.find("0")["cycles"] == 1000
        assert ledger.find("99") is None
        # prefix: newest match wins
        found = ledger.find("01ab")
        assert found is not None and found["cycles"] == 1001
        assert ledger.find("01a") is None  # too short to be a prefix
        assert ledger.find("ffff") is None

    def test_tail(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for index in range(4):
            ledger.record(_entry(index))
        assert [e["cycles"] for e in ledger.tail(2)] == [1002, 1003]
        with pytest.raises(ValueError):
            ledger.tail(0)

    def test_prune_keep(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for index in range(5):
            ledger.record(_entry(index))
        assert ledger.prune(keep=2) == 3
        assert [e["cycles"] for e in ledger.entries()] == [1003, 1004]
        assert ledger.prune(keep=2) == 0  # idempotent

    def test_prune_whose_rename_fails_leaves_the_ledger_unchanged(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        for index in range(3):
            ledger.record(_entry(index))
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(ioutil.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            ledger.prune(keep=1)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.jsonl"]

    def test_prune_max_age_keeps_fresh_entries(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.record(_entry())
        assert ledger.prune(max_age_days=1.0) == 0
        assert len(ledger) == 1

    def test_prune_requires_a_criterion(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        with pytest.raises(ValueError):
            ledger.prune()
        with pytest.raises(ValueError):
            ledger.prune(keep=-1)

    def test_alien_schema_lines_ignored(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_jsonl(path, {"schema": 999, "kind": "run"})
        ledger = RunLedger(path)
        ledger.record(_entry())
        assert len(ledger) == 1


# ----------------------------------------------------------------------
# anomaly detectors
# ----------------------------------------------------------------------
def _window(start: int, end: int, **counters: int) -> dict:
    return {"start": start, "end": end, "counters": dict(counters)}


def _report(windows: list[dict], counters: dict | None = None, cycles: int = 1000) -> RunReport:
    return RunReport(
        workload="CM",
        policy="CacheRW",
        cycles=cycles,
        counters=counters or {},
        metrics=windows,
    )


class TestRetiredCounters:
    def test_counters_of_a_retired_axis_raise_no_alert(self):
        # reports stored before the fault axis was removed still carry its
        # counters; no detector reads them any more
        report = _report(
            [], counters={"faults.injected": 2, "faults.degraded_cycles": 900}, cycles=1000
        )
        assert detect_anomalies(report) == []


class TestHitRateCliff:
    def test_cliff_fires(self):
        windows = [
            _window(0, 100, **{"l2.accesses": 100, "l2.hits": 80}),
            _window(100, 200, **{"l2.accesses": 100, "l2.hits": 10}),
        ]
        alerts = detect_anomalies(_report(windows))
        assert [a.kind for a in alerts] == ["hit_rate_cliff"]
        alert = alerts[0]
        assert alert.severity == "warning"
        assert alert.cycle == 200
        assert alert.value == pytest.approx(0.1)
        assert "0.80 -> 0.10" in alert.message

    def test_a_drop_of_exactly_the_threshold_at_minimum_traffic_fires(self):
        # both bounds are inclusive: 0.75 -> 0.50 over 64-access windows
        accesses = MIN_WINDOW_ACCESSES
        windows = [
            _window(0, 100, **{"l2.accesses": accesses, "l2.hits": accesses * 3 // 4}),
            _window(100, 200, **{"l2.accesses": accesses, "l2.hits": accesses // 2}),
        ]
        (alert,) = detect_anomalies(_report(windows))
        assert alert.threshold == HIT_RATE_CLIFF == 0.25
        assert alert.value == 0.5

    def test_thin_windows_not_judged(self):
        # same collapse, but the second window has too little traffic
        windows = [
            _window(0, 100, **{"l2.accesses": 100, "l2.hits": 80}),
            _window(100, 200, **{"l2.accesses": 10, "l2.hits": 0}),
        ]
        assert detect_anomalies(_report(windows)) == []

    def test_gentle_slope_not_judged(self):
        windows = [
            _window(0, 100, **{"l2.accesses": 100, "l2.hits": 80}),
            _window(100, 200, **{"l2.accesses": 100, "l2.hits": 70}),
        ]
        assert detect_anomalies(_report(windows)) == []

    def test_recovery_is_not_a_cliff(self):
        # the rate going UP is not an anomaly
        windows = [
            _window(0, 100, **{"l2.accesses": 100, "l2.hits": 10}),
            _window(100, 200, **{"l2.accesses": 100, "l2.hits": 80}),
        ]
        assert detect_anomalies(_report(windows)) == []


class TestStarvation:
    def _mix_windows(self) -> list[dict]:
        # two tenants, four windows; stream 1 collapses in the middle ones
        return [
            _window(0, 100, **{"stream0.mem_requests": 50, "stream1.mem_requests": 50}),
            _window(100, 200, **{"stream0.mem_requests": 98, "stream1.mem_requests": 2}),
            _window(200, 300, **{"stream0.mem_requests": 99, "stream1.mem_requests": 1}),
            _window(300, 400, **{"stream0.mem_requests": 50, "stream1.mem_requests": 50}),
        ]

    def test_starvation_fires_inside_active_span(self):
        alerts = detect_anomalies(_report(self._mix_windows()))
        assert [a.kind for a in alerts] == ["stream_starvation"] * 2
        assert all(a.stream == 1 for a in alerts)
        assert [a.cycle for a in alerts] == [200, 300]

    def test_threshold_is_a_fraction_of_the_fair_share(self):
        alerts = detect_anomalies(_report(self._mix_windows()))
        # two tenants: fair share 1/2, starvation below a quarter of it
        assert {a.threshold for a in alerts} == {STARVATION_SHARE / 2}
        assert all(a.value < STARVATION_SHARE / 2 for a in alerts)

    def test_partitioned_dispatch_gates_detector(self):
        assert detect_anomalies(_report(self._mix_windows()), shared_dispatch=False) == []

    def test_span_edges_not_judged(self):
        # stream 1 launches late and finishes early: zero traffic outside its
        # span is a lifetime, not starvation
        windows = [
            _window(0, 100, **{"stream0.mem_requests": 100}),
            _window(100, 200, **{"stream0.mem_requests": 50, "stream1.mem_requests": 50}),
            _window(200, 300, **{"stream0.mem_requests": 100}),
        ]
        assert detect_anomalies(_report(windows)) == []

    def test_single_tenant_never_starves(self):
        windows = [
            _window(0, 100, **{"stream0.mem_requests": 100}),
            _window(100, 200, **{"stream0.mem_requests": 1}),
            _window(200, 300, **{"stream0.mem_requests": 100}),
        ]
        assert detect_anomalies(_report(windows)) == []

    def test_quiet_windows_not_judged(self):
        windows = self._mix_windows()
        for window in windows[1:3]:
            # scale the collapse windows below min_window_traffic
            window["counters"] = {
                name: value // 10 for name, value in window["counters"].items()
            }
        assert detect_anomalies(_report(windows)) == []


class TestAlertSerialization:
    def test_as_dict_omits_absent_stream(self):
        alert = Alert("hit_rate_cliff", "warning", "m", 10, 0.5, 0.25)
        assert "stream" not in alert.as_dict()
        tenant = Alert("stream_starvation", "warning", "m", 10, 0.1, 0.2, stream=3)
        assert tenant.as_dict()["stream"] == 3

    def test_report_round_trips_alerts(self):
        report = _report([])
        report.alerts = [
            Alert("hit_rate_cliff", "warning", "m", 10, 0.1, 0.25).as_dict()
        ]
        blob = report.to_dict()
        assert blob["alerts"] == report.alerts
        assert RunReport.from_dict(blob).alerts == report.alerts

    def test_plain_report_blob_has_no_alerts_key(self):
        assert "alerts" not in _report([]).to_dict()


# ----------------------------------------------------------------------
# counter diffing
# ----------------------------------------------------------------------
def _make_report(**counter_overrides: int) -> RunReport:
    counters = {
        "l1.accesses": 100,
        "l1.hits": 40,
        "l2.accesses": 60,
        "l2.hits": 30,
        "dram.accesses": 30,
        "gpu.mem_requests": 100,
    }
    counters.update(counter_overrides)
    return RunReport(workload="CM", policy="CacheRW", cycles=5000, counters=counters)


class TestDiffReports:
    def test_identical_runs_zero_drift(self):
        diff = diff_reports(_make_report(), _make_report())
        assert diff["identical"] is True
        assert diff["counters"]["changed"] == 0
        assert diff["counters"]["rows"] == []
        assert diff["cycles"]["delta"] == 0
        for signal in diff["derived"].values():
            assert signal["delta"] == pytest.approx(0.0)

    def test_changed_counters_listed_with_rel(self):
        diff = diff_reports(_make_report(), _make_report(**{"l2.hits": 15}))
        assert diff["identical"] is False
        assert diff["counters"]["changed"] == 1
        (row,) = diff["counters"]["rows"]
        assert row["counter"] == "l2.hits"
        assert row["delta"] == -15
        assert row["rel"] == pytest.approx(-0.5)
        assert diff["derived"]["l2_hit_rate"]["delta"] == pytest.approx(-0.25)

    def test_threshold_filters_small_changes_but_counts_them(self):
        b = _make_report(**{"l1.hits": 41, "l2.hits": 60})  # +2.5% and +100%
        diff = diff_reports(_make_report(), b, threshold=0.5)
        assert diff["counters"]["changed"] == 2
        assert [row["counter"] for row in diff["counters"]["rows"]] == ["l2.hits"]
        assert diff["counters"]["max_rel_change"] == pytest.approx(1.0)

    def test_one_sided_counter_always_listed(self):
        diff = diff_reports(_make_report(), _make_report(**{"topo.remote": 5}), threshold=0.9)
        rows = {row["counter"]: row for row in diff["counters"]["rows"]}
        assert rows["topo.remote"]["a"] == 0
        assert rows["topo.remote"]["rel"] is None  # no base to relativize

    def test_cycles_drift_alone_breaks_identity(self):
        b = _make_report()
        b.cycles = 5001
        diff = diff_reports(_make_report(), b)
        assert diff["identical"] is False
        assert diff["counters"]["changed"] == 0

    @pytest.mark.parametrize(
        ("signal", "overrides", "a", "b"),
        [
            ("l1_hit_rate", {"l1.hits": 70}, 0.4, 0.7),
            ("l2_hit_rate", {"l2.hits": 45}, 0.5, 0.75),
            ("dram_row_hit_rate", {"dram.row_hits": 15}, 0.0, 0.5),
            (
                "remote_fraction",
                {"topo.local_requests": 30, "topo.remote_requests": 10},
                0.0,
                0.25,
            ),
            (
                "cache_stalls_per_request",
                {"l1.stall_cycles": 150, "l2.stall_cycles": 50},
                0.0,
                2.0,
            ),
        ],
        ids=[
            "l1_hit_rate",
            "l2_hit_rate",
            "dram_row_hit_rate",
            "remote_fraction",
            "cache_stalls_per_request",
        ],
    )
    def test_derived_signal_row(self, signal, overrides, a, b):
        diff = diff_reports(_make_report(), _make_report(**overrides))
        assert diff["derived"][signal] == pytest.approx({"a": a, "b": b, "delta": b - a})

    def test_derived_signal_set(self):
        diff = diff_reports(_make_report(), _make_report())
        assert set(diff["derived"]) == {
            "l1_hit_rate",
            "l2_hit_rate",
            "dram_row_hit_rate",
            "remote_fraction",
            "cache_stalls_per_request",
        }

    def test_renderers_smoke(self):
        diff = diff_reports(
            _make_report(), _make_report(**{"l2.hits": 15}), a_label="A", b_label="B"
        )
        text = render_diff_table(diff)
        assert "identical: no" in text.lower() and "l2.hits" in text


class TestResolveReport:
    def test_bare_report_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(_make_report().to_dict()))
        report, label = resolve_report(str(path))
        assert report.counters == _make_report().counters
        assert label.endswith("report.json")

    def test_store_blob_file(self, tmp_path):
        path = tmp_path / "blob.json"
        path.write_text(json.dumps({"report": _make_report().to_dict(), "meta": {}}))
        report, _ = resolve_report(str(path))
        assert report.cycles == 5000

    def test_run_json_payload_rejected_with_guidance(self, tmp_path):
        # `run --json` emits derived metrics without raw counters: undiffable
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"workload": "CM", "policy": "CacheRW", "cycles": 1}))
        with pytest.raises(ValueError, match="counters"):
            resolve_report(str(path))

    def test_ledger_reference(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        report = _make_report()
        ledger.record(
            run_entry(
                kind="run",
                fingerprint_hex="ab" * 32,
                workload=report.workload,
                policy=report.policy,
                cycles=report.cycles,
                counters=report.counters,
            )
        )
        resolved, label = resolve_report("-1", ledger=ledger)
        assert resolved.counters == report.counters
        assert label == "ledger:-1"

    def test_ledger_entry_without_counters_rejected(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.record(run_entry(kind="sweep", fingerprint_hex=None, workload="s", policy="*"))
        with pytest.raises(ValueError, match="no counters"):
            resolve_report("-1", ledger=ledger)

    def test_unresolvable_reference(self, tmp_path):
        with pytest.raises(ValueError):
            resolve_report("no-such-thing", ledger=RunLedger(tmp_path / "l.jsonl"))
