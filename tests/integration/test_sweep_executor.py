"""Executor equivalence and persistent-store reuse.

The guarantees the sweep executor rests on:

* a sweep on a process pool (``workers > 1``) produces *bitwise-identical*
  reports to an in-process sweep of the same grid (simulations are
  deterministic and the worker/store serialization is lossless);
* a second sweep against a warm store performs zero new simulations;
* the runner's in-process memo answers repeats without touching the
  executor at all;
* both paths run every job of a batch, record structured failures
  instead of silently swallowing dead workers, and raise the error of
  the lowest failed index.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.accel import SamplingConfig
from repro.config import scaled_config
from repro.core.policies import CACHE_R, CACHE_RW, STATIC_POLICIES, UNCACHED
from repro.experiments import ExperimentRunner, JobSpec, ResultStore, SweepExecutor
from repro.experiments.jobs import ExecutorStats
from repro.obs.ledger import RunLedger
from repro.streams import StreamConfig
from repro.topology import TOPOLOGIES

#: two fast, behaviourally distinct workloads keep the grid cheap
SUBSET = ("FwSoft", "FwAct")
SCALE = 0.1
TINY = scaled_config(2)

#: one optional run axis per entry: what a job carries besides its policy
AXES = {
    "static": dict(workload="FwSoft", scale=SCALE),
    "topology": dict(workload="FwSoft", scale=SCALE, topology=TOPOLOGIES["dual-chiplet"]),
    "streams": dict(
        workload="soft+act",
        streams=(
            StreamConfig(workload="FwSoft", scale=SCALE),
            StreamConfig(workload="FwAct", scale=SCALE, launch_cycle=500),
        ),
    ),
    "sampling": dict(workload="FwLSTM", scale=0.3, sampling=SamplingConfig()),
}


def make_runner(**kwargs) -> ExperimentRunner:
    return ExperimentRunner(scale=SCALE, config=TINY, workload_names=SUBSET, **kwargs)


def grid_dicts(sweep) -> dict:
    return {key: report.to_dict() for key, report in sweep.reports.items()}


class TestBackendEquivalence:
    def test_process_pool_matches_serial_bitwise(self):
        serial = make_runner().sweep(policies=STATIC_POLICIES)
        parallel = make_runner(jobs=4).sweep(policies=STATIC_POLICIES)
        assert grid_dicts(parallel) == grid_dicts(serial)

    def test_single_job_short_circuits_the_pool(self, no_pool):
        job = JobSpec(workload="FwSoft", policy=CACHE_R, scale=SCALE, config=TINY)
        # a repeated job is one distinct job: still no pool
        pooled, repeat = SweepExecutor(workers=2).run([job, job])
        (serial,) = SweepExecutor().run([job])
        assert pooled.to_dict() == repeat.to_dict() == serial.to_dict()

    @pytest.mark.parametrize("axis", sorted(AXES))
    def test_pool_matches_serial_on_every_run_axis(self, axis):
        jobs = [
            JobSpec(policy=policy, config=TINY, **AXES[axis])
            for policy in (CACHE_R, CACHE_RW)
        ]
        pooled = SweepExecutor(workers=2).run(jobs)
        serial = SweepExecutor().run(jobs)
        assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]

    def test_pool_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers must be positive"):
            SweepExecutor(workers=0)


class TestStoreReuse:
    def test_second_run_is_served_entirely_from_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first = make_runner(cache_dir=store_dir)
        cold = first.sweep(policies=STATIC_POLICIES)
        assert first.runs_simulated == len(SUBSET) * len(STATIC_POLICIES)
        assert first.runs_loaded == 0

        second = make_runner(cache_dir=store_dir)
        warm = second.sweep(policies=STATIC_POLICIES)
        assert second.runs_simulated == 0, "warm store must serve every cell"
        assert second.runs_loaded == len(SUBSET) * len(STATIC_POLICIES)
        assert grid_dicts(warm) == grid_dicts(cold)

    def test_store_and_pool_compose(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = make_runner(jobs=2, cache_dir=store_dir).sweep(policies=(UNCACHED, CACHE_R))
        warm_runner = make_runner(jobs=2, cache_dir=store_dir)
        warm = warm_runner.sweep(policies=(UNCACHED, CACHE_R))
        assert warm_runner.runs_simulated == 0
        assert grid_dicts(warm) == grid_dicts(cold)

    def test_corrupt_blob_is_a_warned_miss_not_an_error(self, tmp_path):
        store = ResultStore(tmp_path)
        job = JobSpec(workload="FwSoft", policy=CACHE_R, scale=SCALE, config=TINY)
        key = job.fingerprint()
        (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.load(key) is None
        (tmp_path / f"{key}.json").write_bytes(b"\xff\xfe garbage")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.load(key) is None, "non-UTF-8 blobs are misses, not errors"
        executor = SweepExecutor(store=store)
        with pytest.warns(RuntimeWarning, match="re-simulating"):
            (report,) = executor.run([job])
        assert executor.stats.runs_simulated == 1
        loaded = store.load(key)
        assert loaded is not None and loaded.to_dict() == report.to_dict()

    def test_truncated_entry_is_skipped_warned_and_resimulated(self, tmp_path):
        """A valid entry truncated on disk (full disk, killed writer) heals."""
        store = ResultStore(tmp_path)
        job = JobSpec(workload="FwSoft", policy=CACHE_R, scale=SCALE, config=TINY)
        key = job.fingerprint()
        first = SweepExecutor(store=store)
        (original,) = first.run([job])
        path = tmp_path / f"{key}.json"
        blob = path.read_text(encoding="utf-8")
        path.write_text(blob[: len(blob) // 2], encoding="utf-8")

        second = SweepExecutor(store=store)
        with pytest.warns(RuntimeWarning, match="malformed JSON"):
            (healed,) = second.run([job])
        assert second.stats.runs_simulated == 1 and second.stats.runs_loaded == 0
        assert healed.to_dict() == original.to_dict()
        # the store healed itself: the entry is valid (and warning-free) again
        reloaded = store.load(key)
        assert reloaded is not None and reloaded.to_dict() == original.to_dict()

    def test_stale_schema_entry_is_a_silent_miss(self, tmp_path):
        """Old-schema blobs are expected staleness, not corruption."""
        import json
        import warnings as warnings_module

        store = ResultStore(tmp_path)
        job = JobSpec(workload="FwSoft", policy=CACHE_R, scale=SCALE, config=TINY)
        key = job.fingerprint()
        SweepExecutor(store=store).run([job])
        path = tmp_path / f"{key}.json"
        blob = json.loads(path.read_text(encoding="utf-8"))
        blob["schema"] = -1
        path.write_text(json.dumps(blob), encoding="utf-8")
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert store.load(key) is None

    def test_interrupted_batch_keeps_finished_cells(self, tmp_path):
        """Results are persisted as they finish, not when the batch ends."""
        store = ResultStore(tmp_path)
        executor = SweepExecutor(store=store)
        good = JobSpec(workload="FwSoft", policy=CACHE_R, scale=SCALE, config=TINY)
        bad = JobSpec(workload="NotAWorkload", policy=CACHE_R, scale=SCALE, config=TINY)
        with pytest.raises(KeyError):
            executor.run([good, bad])
        assert store.load(good.fingerprint()) is not None
        # the crashed sweep's survivor is reused by the retry
        retry = SweepExecutor(store=store)
        retry.run([good])
        assert retry.stats.runs_loaded == 1 and retry.stats.runs_simulated == 0

    def test_duplicate_jobs_in_one_batch_simulate_once(self, tmp_path):
        executor = SweepExecutor(store=ResultStore(tmp_path))
        job = JobSpec(workload="FwSoft", policy=CACHE_R, scale=SCALE, config=TINY)
        first, second = executor.run([job, job])
        assert executor.stats.runs_simulated == 1
        assert first.to_dict() == second.to_dict()

    def test_duplicates_of_a_store_hit_load_once(self, tmp_path):
        store = ResultStore(tmp_path)
        job = JobSpec(workload="FwSoft", policy=CACHE_R, scale=SCALE, config=TINY)
        SweepExecutor(store=store).run([job])
        warm = SweepExecutor(store=store)
        first, second = warm.run([job, job])
        assert warm.stats.runs_loaded == 1
        assert warm.stats.runs_simulated == 0
        assert first.to_dict() == second.to_dict()

    def test_mixed_hits_and_misses_come_back_in_input_order(self, tmp_path):
        store = ResultStore(tmp_path)
        soft = JobSpec(workload="FwSoft", policy=CACHE_R, scale=SCALE, config=TINY)
        act = JobSpec(workload="FwAct", policy=CACHE_R, scale=SCALE, config=TINY)
        soft_rw = JobSpec(workload="FwSoft", policy=CACHE_RW, scale=SCALE, config=TINY)
        (warm_soft,) = SweepExecutor(store=store).run([soft])
        executor = SweepExecutor(store=store)
        reports = executor.run([act, soft, soft_rw])
        assert executor.stats.runs_loaded == 1 and executor.stats.runs_simulated == 2
        assert [(r.workload, r.policy) for r in reports] == [
            ("FwAct", CACHE_R.name),
            ("FwSoft", CACHE_R.name),
            ("FwSoft", CACHE_RW.name),
        ]
        assert reports[1].to_dict() == warm_soft.to_dict()

    def test_executor_without_store_simulates_every_run(self):
        executor = SweepExecutor()
        job = JobSpec(workload="FwSoft", policy=CACHE_R, scale=SCALE, config=TINY)
        (first,) = executor.run([job])
        (second,) = executor.run([job])
        assert executor.stats.runs_simulated == 2 and executor.stats.runs_loaded == 0
        assert first.to_dict() == second.to_dict()

    def test_simulated_cells_are_stored_with_their_job_summary(self, tmp_path):
        import json

        job = JobSpec(workload="FwSoft", policy=CACHE_R, scale=SCALE, config=TINY)
        (report,) = SweepExecutor(store=ResultStore(tmp_path)).run([job])
        blob = json.loads((tmp_path / f"{job.fingerprint()}.json").read_text(encoding="utf-8"))
        assert blob["key"] == job.fingerprint()
        assert blob["job"] == job.summary()
        assert blob["report"] == report.to_dict()


class TestExecutorStats:
    @staticmethod
    def _job() -> JobSpec:
        return JobSpec(workload="FwSoft", policy=CACHE_R, scale=SCALE, config=TINY)

    def test_cold_batch_is_timed(self):
        executor = SweepExecutor()
        executor.run([self._job()])
        stats = executor.stats
        assert stats.total == 1
        assert stats.batches == 1 and stats.jobs_timed == 1
        assert stats.job_seconds > 0.0
        assert stats.max_job_seconds == stats.job_seconds == stats.mean_job_seconds
        assert stats.batch_seconds >= stats.job_seconds
        assert stats.telemetry()["retry_attempts"] == 0

    def test_telemetry_keys_are_the_ones_the_benchmark_reads(self):
        # benchmarks/e2e/run.py indexes these keys in every sweep sample
        assert set(ExecutorStats().telemetry()) == {
            "runs_simulated",
            "runs_loaded",
            "runs_failed",
            "store_hit_rate",
            "batches",
            "batch_seconds",
            "job_seconds",
            "jobs_timed",
            "mean_job_seconds",
            "max_job_seconds",
            "retry_attempts",
            "workers",
            "worker_utilization",
        }

    def test_store_only_sweep_dispatches_no_batch(self, tmp_path):
        store = ResultStore(tmp_path)
        SweepExecutor(store=store).run([self._job()])
        warm = SweepExecutor(store=store)
        warm.run([self._job()])
        stats = warm.stats
        assert stats.batches == 0 and stats.batch_seconds == 0.0
        assert stats.jobs_timed == 0 and stats.mean_job_seconds == 0.0
        assert stats.worker_utilization() == 0.0
        assert stats.telemetry()["store_hit_rate"] == 1.0

    def test_worker_utilization_of_a_serial_batch_is_a_fraction(self):
        executor = SweepExecutor()
        executor.run([self._job()])
        one = executor.stats.worker_utilization(1)
        assert 0.0 < one <= 1.0
        assert executor.stats.worker_utilization(4) == pytest.approx(one / 4)

    def test_worker_utilization_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers must be positive"):
            SweepExecutor().stats.worker_utilization(0)

    def test_record_sweep_without_a_ledger_records_nothing(self):
        executor = SweepExecutor()
        executor.run([self._job()])
        assert executor.record_sweep() is None

    def test_record_sweep_reports_the_executor_workers(self, tmp_path):
        executor = SweepExecutor(workers=3, ledger=RunLedger(tmp_path / "ledger.jsonl"))
        entry = executor.record_sweep(label="grid")
        assert entry is not None and entry["workload"] == "grid"
        assert entry["telemetry"]["workers"] == 3


class TestRunnerMemo:
    def test_memo_absorbs_repeats_without_touching_executor(self):
        runner = make_runner()
        runner.sweep(policies=STATIC_POLICIES)
        simulated = runner.runs_simulated
        runner.sweep(policies=STATIC_POLICIES)
        runner.run([JobSpec(workload=SUBSET[0], policy=CACHE_R, scale=SCALE, config=TINY)])
        assert runner.runs_simulated == simulated
        assert runner.memo_hits >= len(SUBSET) * len(STATIC_POLICIES) + 1

    def test_zero_jobs_is_rejected_up_front(self):
        # REPRO_BENCH_JOBS=0 reaches the benchmark runner as jobs=0
        with pytest.raises(ValueError, match="workers must be positive"):
            make_runner(jobs=0)

    def test_stats_keys(self):
        runner = make_runner()
        stats = runner.stats()
        assert set(stats) == {
            "runs_simulated",
            "runs_loaded",
            "runs_failed",
            "memo_hits",
            "cached_runs",
        }


class TestPoolRelease:
    """The per-batch pool must be released on *every* exit path.

    An exception escaping the drain loop (a store write raising, Ctrl-C)
    cancels the jobs not yet started and waits for the running ones, so
    no worker outlives the batch.
    """

    @staticmethod
    def _recording_pool():
        from concurrent.futures import ProcessPoolExecutor

        calls: list[dict[str, bool]] = []

        class RecordingPool(ProcessPoolExecutor):
            #: ``max_workers`` of every pool built
            sizes: list[object] = []

            def __init__(self, max_workers=None, **options):
                self.sizes.append(max_workers)
                super().__init__(max_workers, **options)

            def shutdown(self, wait=True, *, cancel_futures=False):
                calls.append({"wait": wait, "cancel_futures": cancel_futures})
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        return RecordingPool, calls

    def _specs(self):
        """Three jobs, two distinct: the executor's batch holds two."""
        return [
            JobSpec(workload=name, policy=CACHE_R, scale=SCALE, config=TINY)
            for name in ("FwSoft", "FwAct", "FwSoft")
        ]

    @pytest.mark.parametrize(
        "error", [RuntimeError("result sink is full"), KeyboardInterrupt()], ids=repr
    )
    def test_raising_store_write_cancels_pending_jobs_and_joins_the_pool(
        self, monkeypatch, tmp_path, error
    ):
        pool_class, calls = self._recording_pool()
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool_class)

        class FullStore(ResultStore):
            def save(self, *args, **kwargs):
                raise error

        executor = SweepExecutor(workers=2, store=FullStore(tmp_path))
        with pytest.raises(type(error)):
            executor.run(self._specs())
        assert calls, "the pool was never shut down"
        assert calls[-1] == {"wait": True, "cancel_futures": True}
        assert multiprocessing.active_children() == []
        assert executor.stats.failures == []

    def test_happy_path_still_waits_for_a_clean_shutdown(self, monkeypatch):
        pool_class, calls = self._recording_pool()
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool_class)
        reports = SweepExecutor(workers=2).run(self._specs())
        assert all(report is not None for report in reports)
        assert calls[-1] == {"wait": True, "cancel_futures": True}

    @pytest.mark.parametrize("workers, built", [(8, 2)])
    def test_pool_is_no_wider_than_the_batch(self, monkeypatch, workers, built):
        pool_class, _calls = self._recording_pool()
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool_class)
        SweepExecutor(workers=workers).run(self._specs())
        assert pool_class.sizes == [built]


BAD = JobSpec(workload="NotAWorkload", policy=CACHE_R, scale=0.1, config=TINY)
GOOD = [JobSpec(workload=name, policy=CACHE_R, scale=0.1, config=TINY) for name in SUBSET]


class TestFailureContract:
    """In-process and pooled batches fail the same way: every job runs,
    every failure is recorded, finished cells are stored, and the error of
    the lowest failed batch index is raised."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_finished_cell_is_stored_past_a_failure(self, tmp_path, workers):
        store = ResultStore(tmp_path)
        executor = SweepExecutor(workers=workers, store=store)
        with pytest.raises(KeyError, match="NotAWorkload"):
            executor.run([BAD, *GOOD])
        stats = executor.stats
        assert (stats.runs_simulated, stats.runs_failed, stats.jobs_timed) == (2, 1, 2)
        (failure,) = stats.failures
        assert failure.index == 0 and failure.fingerprint == BAD.fingerprint()
        assert {job.fingerprint() for job in GOOD} == set(store.keys())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_lowest_failed_index_is_raised(self, workers):
        second = JobSpec(workload="NorThisOne", policy=CACHE_R, scale=0.1, config=TINY)
        executor = SweepExecutor(workers=workers)
        with pytest.raises(KeyError, match="NotAWorkload"):
            executor.run([BAD, GOOD[0], second])
        failures = executor.stats.failures
        assert [failure.index for failure in failures] == [0, 2]
        assert "NotAWorkload" in failures[0].error
        assert "NorThisOne" in failures[1].error

    def test_a_lone_job_runs_inline_and_records_its_failure(self, no_pool):
        executor = SweepExecutor(workers=2)
        with pytest.raises(KeyError):
            executor.run([BAD])
        (failure,) = executor.stats.failures
        assert failure.index == 0
        assert failure.fingerprint == BAD.fingerprint()

    def test_ctrl_c_stops_an_in_process_batch_at_once(self, monkeypatch, tmp_path):
        """A ``BaseException`` is no job failure: nothing after it runs."""
        import repro.session

        simulate = repro.session.simulate
        ran: list[str] = []

        def interrupt_second(job):
            ran.append(job.workload)
            if len(ran) == 2:
                raise KeyboardInterrupt
            return simulate(job)

        monkeypatch.setattr("repro.session.simulate", interrupt_second)
        store = ResultStore(tmp_path)
        third = JobSpec(workload="FwLSTM", policy=CACHE_R, scale=0.1, config=TINY)
        executor = SweepExecutor(store=store)
        with pytest.raises(KeyboardInterrupt):
            executor.run([*GOOD, third])
        assert ran == list(SUBSET)
        assert executor.stats.failures == [] and executor.stats.runs_failed == 0
        assert set(store.keys()) == {GOOD[0].fingerprint()}

    def test_failures_survive_a_store_write_that_escapes(self, tmp_path):
        """A failing store write ends the batch, yet the job that failed
        before it is still on ``stats.failures``."""

        class FullStore(ResultStore):
            def save(self, *args, **kwargs):
                raise OSError("no space left on device")

        executor = SweepExecutor(store=FullStore(tmp_path))
        with pytest.raises(OSError, match="no space"):
            executor.run([BAD, GOOD[0]])
        (failure,) = executor.stats.failures
        assert failure.index == 0 and "NotAWorkload" in failure.error
        assert executor.stats.runs_failed == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_finished_job_is_timed(self, workers):
        executor = SweepExecutor(workers=workers)
        executor.run(GOOD)
        stats = executor.stats
        assert stats.jobs_timed == 2 and stats.batches == 1
        # with two jobs, the sum exceeds the max only if both are positive
        assert stats.max_job_seconds > 0.0 and stats.job_seconds > stats.max_job_seconds

    def test_executor_accounts_failures_in_stats(self):
        executor = SweepExecutor()
        with pytest.raises(KeyError):
            executor.run([BAD])
        assert executor.stats.runs_failed == 1
        (failure,) = executor.stats.failures
        assert failure.index == 0
        assert "NotAWorkload" in failure.error
        assert failure.fingerprint == BAD.fingerprint()
        assert failure.job["workload"] == "NotAWorkload"
