"""Chaos tests for the sweep execution layer itself.

The fault injector chaos-tests the *simulated* fleet; this module
chaos-tests the *real* execution layer that runs the sweeps:

* a sweep SIGKILLed mid-flight resumes from its store alone: the re-run
  loads every cell that had finished and simulates only the rest;
* a pool worker SIGKILLed mid-job fails the batch's unfinished jobs as
  structured records while its finished ones are kept, and the re-run
  simulates only the failed cells;
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
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.accel import ShardConfig
from repro.accel.shard import ShardExecutionError, run_sharded
from repro.config import scaled_config
from repro.core.policies import CACHE_RW, STATIC_POLICIES
from repro.experiments import jobs as jobs_module
from repro.experiments.jobs import JobSpec, SweepExecutor
from repro.experiments.store import ResultStore
from repro.stats.report import RunReport
from repro.streams import StreamConfig

SRC = Path(__file__).resolve().parents[2] / "src"
TINY = scaled_config(2)


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
from repro.accel import ShardConfig
from repro.accel.shard import ShardExecutionError, run_sharded
from repro.config import scaled_config
from repro.core.policies import CACHE_RW, STATIC_POLICIES
from repro.experiments import jobs as jobs_module
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


_real_payload = jobs_module._execute_job_payload


def _suicidal_payload(job):
    """The first job to start kills its worker (SIGKILL); the rest run."""
    try:
        os.close(os.open(os.environ["CHAOS_SENTINEL"], os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return _real_payload(job)
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="worker-kill chaos needs the fork start method",
)
class TestDeadWorker:
    @pytest.fixture
    def jobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAOS_SENTINEL", str(tmp_path / "sentinel"))
        monkeypatch.setattr(jobs_module, "_execute_job_payload", _suicidal_payload)
        return [
            JobSpec(workload="FwSoft", policy=policy, scale=0.1, config=TINY)
            for policy in STATIC_POLICIES
        ]

    def test_unfinished_jobs_become_failures_and_finished_ones_are_kept(self, jobs, tmp_path):
        store = ResultStore(tmp_path / "store")
        executor = SweepExecutor(workers=2, store=store)
        with pytest.raises(BrokenProcessPool):
            executor.run(jobs)
        failures = executor.stats.failures
        failed = [failure.index for failure in failures]
        assert failed and failed == sorted(failed)
        stored = set(store.keys())
        finished = [index for index, job in enumerate(jobs) if job.fingerprint() in stored]
        assert sorted(failed + finished) == list(range(len(jobs)))
        assert all("BrokenProcessPool" in failure.error for failure in failures)
        assert multiprocessing.active_children() == []

    def test_the_rerun_simulates_only_the_failed_cells(self, jobs, tmp_path):
        store_dir = str(tmp_path / "store")
        executor = SweepExecutor(workers=2, store=ResultStore(store_dir))
        with pytest.raises(BrokenProcessPool):
            executor.run(jobs)
        stats = executor.stats
        assert stats.runs_failed == len(stats.failures) >= 1
        assert stats.runs_simulated + stats.runs_failed == len(jobs)
        rerun = SweepExecutor(store=ResultStore(store_dir))
        rerun.run(jobs)
        assert rerun.stats.runs_loaded == stats.runs_simulated
        assert rerun.stats.runs_simulated == stats.runs_failed

    def test_a_dead_shard_worker_fails_the_sharded_run(self, jobs):
        streams = [
            StreamConfig(workload=name, scale=0.2, cu_share="partitioned")
            for name in ("FwSoft", "FwAct")
        ]
        with pytest.raises(ShardExecutionError) as excinfo:
            run_sharded(
                JobSpec(
                    policy=CACHE_RW,
                    config=scaled_config(4),
                    streams=streams,
                    shards=ShardConfig(num_shards=2),
                )
            )
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
        assert excinfo.value.failures
        assert multiprocessing.active_children() == []


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
