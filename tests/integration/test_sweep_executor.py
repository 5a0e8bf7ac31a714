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
        assert stats.retry_attempts == 0

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
    """The per-attempt pool must be released on *every* exit path.

    Regression: an ``on_result`` callback raising out of the drain loop
    used to reach ``pool.shutdown(wait=True)``, blocking the sweep on
    still-running -- possibly stuck -- workers and leaking the pool past
    the attempt.  The abandon path now stops the pool's workers, shuts
    down without waiting and cancels unstarted futures.
    """

    @staticmethod
    def _recording_pool():
        from concurrent.futures import ProcessPoolExecutor

        calls: list[dict[str, bool]] = []

        class RecordingPool(ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                calls.append({"wait": wait, "cancel_futures": cancel_futures})
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        return RecordingPool, calls

    def _specs(self):
        return [
            JobSpec(workload=name, policy=CACHE_R, scale=SCALE, config=TINY)
            for name in ("FwSoft", "FwAct", "FwSoft")
        ]

    def test_raising_callback_abandons_the_pool_without_waiting(self, monkeypatch):
        pool_class, calls = self._recording_pool()
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool_class)
        backend = ProcessPoolBackend(max_workers=1)

        def sink(index, report):
            raise RuntimeError("result sink is full")

        with pytest.raises(RuntimeError, match="result sink is full"):
            backend.run_jobs(self._specs(), on_result=sink)
        assert calls, "the pool was never shut down"
        assert calls[-1] == {"wait": False, "cancel_futures": True}

    def test_happy_path_still_waits_for_a_clean_shutdown(self, monkeypatch):
        pool_class, calls = self._recording_pool()
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool_class)
        backend = ProcessPoolBackend(max_workers=1)
        reports = backend.run_jobs(self._specs())
        assert all(report is not None for report in reports)
        assert calls[-1] == {"wait": True, "cancel_futures": True}


class TestBackendFailureRecords:
    def test_serial_backend_records_the_failure_it_raises(self):
        backend = SerialBackend()
        bad = JobSpec(workload="NotAWorkload", policy=CACHE_R, scale=0.1, config=TINY)
        with pytest.raises(KeyError):
            backend.run_jobs([bad])
        (failure,) = backend.failures
        assert failure.index == 0
        assert failure.attempts == 1
        assert "NotAWorkload" in failure.error
        assert failure.fingerprint == bad.fingerprint()
        assert failure.as_dict()["job"]["workload"] == "NotAWorkload"

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

    def test_pool_backend_retries_transient_failures(self):
        # a deterministic failure exhausts the retry budget: attempts
        # reflects every pool generation that tried the job
        bad = JobSpec(workload="NotAWorkload", policy=CACHE_R, scale=0.1, config=TINY)
        good = JobSpec(workload="FwSoft", policy=CACHE_R, scale=0.1, config=TINY)
        backend = ProcessPoolBackend(max_workers=2, retries=2, retry_backoff=0.0)
        with pytest.raises(KeyError):
            backend.run_jobs([good, bad])
        (failure,) = backend.failures
        assert failure.attempts == 3

    def test_executor_accounts_failures_in_stats(self):
        executor = SweepExecutor(backend=SerialBackend())
        bad = JobSpec(workload="NotAWorkload", policy=CACHE_R, scale=0.1, config=TINY)
        with pytest.raises(KeyError):
            executor.run([bad])
        assert executor.stats.runs_failed == 1
        (failure,) = executor.stats.failures
        assert failure.fingerprint == bad.fingerprint()

    def test_backend_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(timeout=0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(retries=-1)
        with pytest.raises(ValueError):
            ProcessPoolBackend(retry_backoff=-0.1)
