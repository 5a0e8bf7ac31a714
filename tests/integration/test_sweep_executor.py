"""Executor equivalence and persistent-store reuse.

The guarantees the sweep executor rests on:

* a :class:`ProcessPoolBackend` sweep produces *bitwise-identical* reports
  to a :class:`SerialBackend` sweep of the same grid (simulations are
  deterministic and the worker/store serialization is lossless);
* a second sweep against a warm store performs zero new simulations;
* the runner's in-process memo answers repeats without touching the
  executor at all;
* backends record structured failures instead of silently swallowing
  dead workers.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.accel import SamplingConfig
from repro.config import scaled_config
from repro.core.policies import CACHE_R, CACHE_RW, STATIC_POLICIES, UNCACHED
from repro.experiments import (
    ExperimentRunner,
    JobSpec,
    ProcessPoolBackend,
    ResultStore,
    SerialBackend,
    SweepExecutor,
)
from repro.experiments.jobs import ExecutorStats
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

    def test_single_job_short_circuits_the_pool(self):
        backend = ProcessPoolBackend(max_workers=2)
        job = JobSpec(workload="FwSoft", policy=CACHE_R, scale=SCALE, config=TINY)
        (pooled,) = backend.run_jobs([job])
        (serial,) = SerialBackend().run_jobs([job])
        assert pooled.to_dict() == serial.to_dict()

    @pytest.mark.parametrize("axis", sorted(AXES))
    def test_pool_matches_serial_on_every_run_axis(self, axis):
        jobs = [
            JobSpec(policy=policy, config=TINY, **AXES[axis])
            for policy in (CACHE_R, CACHE_RW)
        ]
        pooled = ProcessPoolBackend(max_workers=2).run_jobs(jobs)
        serial = SerialBackend().run_jobs(jobs)
        assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]

    def test_pool_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(max_workers=0)


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

    def test_run_one_is_a_batch_of_one(self, tmp_path):
        job = JobSpec(workload="FwSoft", policy=CACHE_R, scale=SCALE, config=TINY)
        executor = SweepExecutor(store=ResultStore(tmp_path))
        single = executor.run_one(job)
        (batched,) = SweepExecutor(store=ResultStore(tmp_path / "other")).run([job])
        assert single.to_dict() == batched.to_dict()
        assert executor.stats.runs_simulated == 1 and executor.stats.batches == 1


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


class TestRunnerMemo:
    def test_memo_absorbs_repeats_without_touching_executor(self):
        runner = make_runner()
        runner.sweep(policies=STATIC_POLICIES)
        simulated = runner.runs_simulated
        runner.sweep(policies=STATIC_POLICIES)
        runner.run_one(SUBSET[0], STATIC_POLICIES[0])
        assert runner.runs_simulated == simulated
        assert runner.memo_hits >= len(SUBSET) * len(STATIC_POLICIES) + 1

    def test_shared_executor_aggregates_across_runners(self, tmp_path):
        executor = SweepExecutor(store=ResultStore(tmp_path))
        one = make_runner(executor=executor)
        two = make_runner(executor=executor)
        one.sweep(policies=(CACHE_R,))
        two.sweep(policies=(CACHE_R,))
        # the second runner has a cold memo but a warm shared store
        assert executor.stats.runs_simulated == len(SUBSET)
        assert executor.stats.runs_loaded == len(SUBSET)

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

    An exception escaping the drain loop (an ``on_result`` callback
    raising, Ctrl-C) cancels the jobs not yet started and waits for the
    running ones, so no worker outlives the batch.
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
        return [
            JobSpec(workload=name, policy=CACHE_R, scale=SCALE, config=TINY)
            for name in ("FwSoft", "FwAct", "FwSoft")
        ]

    @pytest.mark.parametrize(
        "error", [RuntimeError("result sink is full"), KeyboardInterrupt()], ids=repr
    )
    def test_raising_callback_cancels_pending_jobs_and_joins_the_pool(
        self, monkeypatch, error
    ):
        pool_class, calls = self._recording_pool()
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool_class)
        backend = ProcessPoolBackend(max_workers=1)

        def sink(index, report):
            raise error

        with pytest.raises(type(error)):
            backend.run_jobs(self._specs(), on_result=sink)
        assert calls, "the pool was never shut down"
        assert calls[-1] == {"wait": True, "cancel_futures": True}
        assert multiprocessing.active_children() == []

    def test_happy_path_still_waits_for_a_clean_shutdown(self, monkeypatch):
        pool_class, calls = self._recording_pool()
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool_class)
        backend = ProcessPoolBackend(max_workers=1)
        reports = backend.run_jobs(self._specs())
        assert all(report is not None for report in reports)
        assert calls[-1] == {"wait": True, "cancel_futures": True}

    @pytest.mark.parametrize("max_workers, built", [(8, 3), (None, None)])
    def test_pool_is_no_wider_than_the_batch(self, monkeypatch, max_workers, built):
        pool_class, _calls = self._recording_pool()
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool_class)
        ProcessPoolBackend(max_workers=max_workers).run_jobs(self._specs())
        assert pool_class.sizes == [built]


class TestBackendFailureRecords:
    def test_serial_backend_records_the_failure_it_raises(self):
        backend = SerialBackend()
        bad = JobSpec(workload="NotAWorkload", policy=CACHE_R, scale=0.1, config=TINY)
        with pytest.raises(KeyError):
            backend.run_jobs([bad])
        (failure,) = backend.failures
        assert failure.index == 0
        assert "NotAWorkload" in failure.error
        assert failure.fingerprint == bad.fingerprint()
        assert failure.as_dict()["job"]["workload"] == "NotAWorkload"

    def test_serial_backend_stops_at_the_first_failure(self):
        bad = JobSpec(workload="NotAWorkload", policy=CACHE_R, scale=0.1, config=TINY)
        good = JobSpec(workload="FwSoft", policy=CACHE_R, scale=0.1, config=TINY)
        finished: dict[int, object] = {}
        backend = SerialBackend()
        with pytest.raises(KeyError):
            backend.run_jobs([bad, good], on_result=finished.setdefault)
        assert finished == {} and backend.job_seconds == {}

    def test_pool_backend_records_failures_and_keeps_survivors(self, tmp_path):
        good = JobSpec(workload="FwSoft", policy=CACHE_R, scale=0.1, config=TINY)
        other = JobSpec(workload="FwAct", policy=CACHE_R, scale=0.1, config=TINY)
        bad = JobSpec(workload="NotAWorkload", policy=CACHE_R, scale=0.1, config=TINY)
        backend = ProcessPoolBackend(max_workers=2)
        finished: dict[int, object] = {}
        with pytest.raises(KeyError):
            backend.run_jobs(
                [good, bad, other],
                on_result=lambda index, report: finished.setdefault(index, report),
            )
        (failure,) = backend.failures
        assert failure.index == 1
        assert "NotAWorkload" in failure.error
        # the healthy jobs were delivered despite the dead one
        assert set(finished) == {0, 2}

    def test_pool_backend_raises_the_first_failure_of_the_batch(self):
        good = JobSpec(workload="FwSoft", policy=CACHE_R, scale=0.1, config=TINY)
        first = JobSpec(workload="NotAWorkload", policy=CACHE_R, scale=0.1, config=TINY)
        second = JobSpec(workload="NorThisOne", policy=CACHE_R, scale=0.1, config=TINY)
        backend = ProcessPoolBackend(max_workers=2)
        with pytest.raises(KeyError, match="NotAWorkload"):
            backend.run_jobs([first, good, second])
        assert [failure.index for failure in backend.failures] == [0, 2]
        assert "NotAWorkload" in backend.failures[0].error
        assert "NorThisOne" in backend.failures[1].error

    def test_pool_backend_runs_a_lone_job_inline_and_records_its_failure(
        self, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single job must not build a pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        bad = JobSpec(workload="NotAWorkload", policy=CACHE_R, scale=0.1, config=TINY)
        backend = ProcessPoolBackend(max_workers=2)
        with pytest.raises(KeyError):
            backend.run_jobs([bad])
        (failure,) = backend.failures
        assert failure.index == 0
        assert failure.fingerprint == bad.fingerprint()

    def test_pool_backend_times_every_finished_job(self):
        jobs = [
            JobSpec(workload=name, policy=CACHE_R, scale=0.1, config=TINY)
            for name in SUBSET
        ]
        backend = ProcessPoolBackend(max_workers=2)
        backend.run_jobs(jobs)
        assert set(backend.job_seconds) == {0, 1}
        assert all(seconds > 0.0 for seconds in backend.job_seconds.values())

    def test_pool_sweep_stores_every_finished_cell_past_a_failure(self, tmp_path):
        """Unlike the serial path, a failed first job stops nothing."""
        store = ResultStore(tmp_path)
        executor = SweepExecutor(backend=ProcessPoolBackend(max_workers=2), store=store)
        bad = JobSpec(workload="NotAWorkload", policy=CACHE_R, scale=0.1, config=TINY)
        good = [
            JobSpec(workload=name, policy=CACHE_R, scale=0.1, config=TINY)
            for name in SUBSET
        ]
        with pytest.raises(KeyError):
            executor.run([bad, *good])
        stats = executor.stats
        assert (stats.runs_simulated, stats.runs_failed, stats.jobs_timed) == (2, 1, 2)
        assert {job.fingerprint() for job in good} == set(store.keys())

    def test_executor_accounts_failures_in_stats(self):
        executor = SweepExecutor(backend=SerialBackend())
        bad = JobSpec(workload="NotAWorkload", policy=CACHE_R, scale=0.1, config=TINY)
        with pytest.raises(KeyError):
            executor.run([bad])
        assert executor.stats.runs_failed == 1
        (failure,) = executor.stats.failures
        assert failure.fingerprint == bad.fingerprint()
