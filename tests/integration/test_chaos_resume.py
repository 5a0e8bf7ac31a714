"""Chaos tests for the sweep execution layer itself.

The fault injector chaos-tests the *simulated* fleet; this module
chaos-tests the *real* execution layer that runs the sweeps:

* a sweep SIGKILLed mid-flight resumes from its store alone: the re-run
  loads every cell that had finished and simulates only the rest;
* a pool worker SIGKILLed mid-job poisons only one pool generation: the
  retry logic re-runs the unfinished jobs on a fresh pool and the batch
  completes with no failure records;
* a hung worker trips the batch timeout, is abandoned, and the retry
  completes the job;
* a writer crashing between the temp-file write and the atomic rename
  never leaves a torn or half-visible store entry.

The worker-kill tests fork the test process, so they are skipped on
platforms whose multiprocessing start method is not ``fork``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import scaled_config
from repro.core.policies import STATIC_POLICIES
from repro.experiments import jobs as jobs_module
from repro.experiments.jobs import JobSpec, ProcessPoolBackend, SweepExecutor
from repro.experiments.store import ResultStore
from repro.stats.report import RunReport

SRC = Path(__file__).resolve().parents[2] / "src"
TINY = scaled_config(2)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="worker-kill chaos needs the fork start method",
)


def sweep_jobs() -> list[JobSpec]:
    """Six distinct cells, each heavy enough to leave a kill window."""
    return [
        JobSpec(workload=workload, policy=policy, scale=scale, config=TINY)
        for workload, scale in (("DGEMM", 0.5), ("FwLSTM", 0.1))
        for policy in STATIC_POLICIES
    ]


#: the child runs exactly the parent's sweep, then exits 0
_CHILD_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.config import scaled_config
from repro.core.policies import STATIC_POLICIES
from repro.experiments.jobs import JobSpec, SweepExecutor
from repro.experiments.store import ResultStore

TINY = scaled_config(2)
jobs = [
    JobSpec(workload=workload, policy=policy, scale=scale, config=TINY)
    for workload, scale in (("DGEMM", 0.5), ("FwLSTM", 0.1))
    for policy in STATIC_POLICIES
]
SweepExecutor(store=ResultStore({store!r})).run(jobs)
"""


class TestSigkillResume:
    def test_sigkilled_sweep_resumes_without_resimulating_warm_cells(self, tmp_path):
        store_dir = str(tmp_path / "store")
        script = _CHILD_SCRIPT.format(src=str(SRC), store=store_dir)
        child = subprocess.Popen([sys.executable, "-c", script])
        try:
            # wait for the first stored cell, then kill without warning
            deadline = time.time() + 60.0
            while time.time() < deadline and child.poll() is None:
                if len(ResultStore(store_dir)):
                    break
                time.sleep(0.02)
            assert child.poll() is None, "the sweep finished before it was killed"
            assert len(ResultStore(store_dir)) >= 1, "child never stored a cell"
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup on failure
                child.kill()
                child.wait()
        assert child.returncode == -signal.SIGKILL

        # atomic writes leave only whole entries behind the kill; the
        # re-run loads each of them and simulates only the missing cells
        jobs = sweep_jobs()
        stored = set(ResultStore(store_dir).keys())
        assert stored <= {job.fingerprint() for job in jobs}
        executor = SweepExecutor(store=ResultStore(store_dir))
        reports = executor.run(jobs)
        assert len(reports) == len(jobs)
        assert executor.stats.runs_loaded == len(stored)
        assert executor.stats.runs_simulated == len(jobs) - len(stored)


def _suicidal_payload(job):
    """First worker to run without the sentinel dies mid-job (SIGKILL)."""
    sentinel = Path(os.environ["CHAOS_SENTINEL"])
    if not sentinel.exists():
        sentinel.write_text("dead")
        os.kill(os.getpid(), signal.SIGKILL)
    return _real_payload(job)


_real_payload = jobs_module._execute_job_payload


def _hanging_payload(job):
    """The first worker generation hangs; later generations run clean."""
    sentinel = Path(os.environ["CHAOS_SENTINEL"])
    if not sentinel.exists():
        sentinel.write_text("hung")
        time.sleep(3.0)
    return _real_payload(job)


@fork_only
class TestWorkerChaos:
    def test_sigkilled_worker_is_retried_on_a_fresh_pool(
        self, tmp_path, monkeypatch
    ):
        """One murdered worker poisons one pool generation, not the sweep."""
        monkeypatch.setenv("CHAOS_SENTINEL", str(tmp_path / "sentinel"))
        monkeypatch.setattr(jobs_module, "_execute_job_payload", _suicidal_payload)
        jobs = [
            JobSpec(workload="FwSoft", policy=policy, scale=0.1, config=TINY)
            for policy in STATIC_POLICIES
        ]
        backend = ProcessPoolBackend(max_workers=2, retries=2, retry_backoff=0.0)
        reports = backend.run_jobs(jobs)
        assert len(reports) == len(jobs)
        assert backend.failures == []
        # bit-identical to an undisturbed run despite the murder
        expected = [_real_payload(job)["report"] for job in jobs]
        assert [r.to_dict() for r in reports] == expected

    def test_sigkilled_worker_without_retries_is_a_recorded_failure(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("CHAOS_SENTINEL", str(tmp_path / "sentinel"))
        monkeypatch.setattr(jobs_module, "_execute_job_payload", _suicidal_payload)
        jobs = [
            JobSpec(workload="FwSoft", policy=policy, scale=0.1, config=TINY)
            for policy in STATIC_POLICIES
        ]
        backend = ProcessPoolBackend(max_workers=2, retries=0)
        with pytest.raises(BaseException):
            backend.run_jobs(jobs)
        assert backend.failures, "a dead worker must leave failure records"
        for failure in backend.failures:
            assert failure.attempts == 1
            assert failure.error

    def test_hung_worker_trips_the_timeout_and_the_retry_completes(
        self, tmp_path, monkeypatch
    ):
        sentinel = tmp_path / "sentinel"
        monkeypatch.setenv("CHAOS_SENTINEL", str(sentinel))
        monkeypatch.setattr(jobs_module, "_execute_job_payload", _hanging_payload)
        jobs = [
            JobSpec(workload="FwSoft", policy=policy, scale=0.1, config=TINY)
            for policy in STATIC_POLICIES[:2]
        ]
        backend = ProcessPoolBackend(
            max_workers=2, timeout=0.75, retries=1, retry_backoff=0.0
        )
        reports = backend.run_jobs(jobs)
        assert len(reports) == len(jobs)
        assert backend.failures == []

    def test_hung_worker_without_retries_reports_a_timeout(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("CHAOS_SENTINEL", str(tmp_path / "sentinel"))
        monkeypatch.setattr(jobs_module, "_execute_job_payload", _hanging_payload)
        jobs = [
            JobSpec(workload="FwSoft", policy=policy, scale=0.1, config=TINY)
            for policy in STATIC_POLICIES[:2]
        ]
        backend = ProcessPoolBackend(max_workers=2, timeout=0.5, retries=0)
        with pytest.raises(BaseException):
            backend.run_jobs(jobs)
        assert backend.failures
        assert any("did not finish" in failure.error for failure in backend.failures)


class TestAtomicStoreWrites:
    def test_crash_between_write_and_rename_leaves_no_torn_entry(
        self, tmp_path, monkeypatch
    ):
        """A writer killed after the temp write but before the rename must
        leave the store exactly as it was: no entry, no orphan."""
        store = ResultStore(tmp_path)
        report = RunReport(workload="w", policy="p", cycles=123, counters={"a": 1})
        key = "deadbeef"

        real_replace = os.replace

        def killed_mid_write(src, dst):
            raise OSError("simulated SIGKILL between write and rename")

        monkeypatch.setattr(os, "replace", killed_mid_write)
        with pytest.raises(OSError, match="simulated"):
            store.save(key, report)
        monkeypatch.setattr(os, "replace", real_replace)

        assert store.load(key) is None
        assert list(store.keys()) == []
        assert store.stats()["stale_tmp"] == 0, "failed writes must clean up"
        # the store still works after the crash
        store.save(key, report)
        loaded = store.load(key)
        assert loaded is not None and loaded.to_dict() == report.to_dict()

    def test_orphaned_tmp_files_never_surface_as_entries(self, tmp_path):
        """A hard kill can orphan a temp file; it must stay invisible."""
        store = ResultStore(tmp_path)
        (tmp_path / ".tmp-orphan.json").write_text("{torn", encoding="utf-8")
        assert list(store.keys()) == []
        assert store.stats()["entries"] == 0
        assert store.stats()["stale_tmp"] == 1
