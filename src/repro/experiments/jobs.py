"""Job-based sweep execution: one job per (workload, policy) grid cell.

* :class:`~repro.spec.JobSpec` names one simulation -- workload, scale,
  policy, system configuration and run axes -- and derives a stable
  content fingerprint from those inputs, which doubles as the key in the
  persistent :class:`~repro.experiments.store.ResultStore`.
* :class:`SweepExecutor` resolves a batch of jobs to reports: store hits
  are loaded, and the misses are simulated in-process or, with
  ``workers > 1``, fanned out across worker processes with
  :class:`concurrent.futures.ProcessPoolExecutor`.  Grid cells share no
  state, so the parallel speedup is essentially linear until the machine
  runs out of cores.  Each finished cell is written back to the store as
  it lands, and the simulated and loaded counts are tracked so callers
  can assert cache effectiveness.

Every simulation is deterministic, so a report loaded from the store (or
computed in a worker process) is bit-identical to one computed inline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.experiments.store import ResultStore
from repro.spec import JobSpec
from repro.stats.report import RunReport

if TYPE_CHECKING:
    from repro.obs.ledger import RunLedger

__all__ = ["JobSpec", "JobFailure", "ExecutorStats", "SweepExecutor"]


def _execute_job_payload(job: JobSpec) -> dict[str, object]:
    """Worker-side entry point: simulate one job, ship the report back as
    primitives.

    Returning ``to_dict()`` output instead of the dataclass keeps the
    parent<->worker contract identical to the store's JSON contract, so a
    report that crossed a process boundary compares equal to one that was
    simulated inline or loaded from disk.  The worker also measures its own
    wall time -- queueing and pickling excluded -- which feeds the sweep
    telemetry's worker-utilization accounting.
    """
    started = time.perf_counter()
    from repro.session import simulate

    report = simulate(job).to_dict()
    return {"report": report, "elapsed_seconds": time.perf_counter() - started}


@dataclass(frozen=True)
class JobFailure:
    """Structured record of one job the executor could not complete.

    A batch keeps running when a job raises or its worker dies; every
    such job becomes one of these on ``ExecutorStats.failures`` -- a
    worker crash is data, not a silent hole in the sweep.
    """

    #: position of the job in the submitted batch
    index: int
    #: the job's store fingerprint (joins failures to grid cells)
    fingerprint: str
    #: human-readable job inputs (:meth:`JobSpec.summary`)
    job: dict[str, object]
    #: ``repr`` of the exception (a BrokenProcessPool for a dead worker)
    error: str


@dataclass
class ExecutorStats:
    """Where the executor's reports came from (cumulative), plus the sweep
    telemetry: batch and per-job wall time and the worker utilization they
    imply."""

    runs_simulated: int = 0
    runs_loaded: int = 0
    runs_failed: int = 0
    #: structured records behind :attr:`runs_failed` (cumulative)
    failures: list[JobFailure] = field(default_factory=list)
    #: batches simulated (store-only sweeps simulate none)
    batches: int = 0
    #: wall seconds spent inside batches, end to end
    batch_seconds: float = 0.0
    #: summed per-job wall seconds (worker-side, so pool overhead excluded)
    job_seconds: float = 0.0
    #: jobs with a recorded wall time (failed jobs have none)
    jobs_timed: int = 0
    #: slowest single job observed (the sweep's straggler)
    max_job_seconds: float = 0.0

    @property
    def total(self) -> int:
        return self.runs_simulated + self.runs_loaded

    @property
    def mean_job_seconds(self) -> float:
        return self.job_seconds / self.jobs_timed if self.jobs_timed else 0.0

    def worker_utilization(self, workers: int = 1) -> float:
        """Fraction of the worker-pool's batch capacity spent simulating.

        ``sum(job time) / (batch wall time * workers)``: 1.0 means every
        worker simulated the whole batch; low values expose pool overhead,
        stragglers or an oversized pool.  0.0 before any batch ran.
        """
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        capacity = self.batch_seconds * workers
        return self.job_seconds / capacity if capacity > 0 else 0.0

    def telemetry(self, workers: int = 1) -> dict[str, object]:
        """JSON-ready sweep profile (the ``--telemetry-out`` artifact)."""
        return {
            "runs_simulated": self.runs_simulated,
            "runs_loaded": self.runs_loaded,
            "runs_failed": self.runs_failed,
            "store_hit_rate": self.runs_loaded / self.total if self.total else 0.0,
            "batches": self.batches,
            "batch_seconds": self.batch_seconds,
            "job_seconds": self.job_seconds,
            "jobs_timed": self.jobs_timed,
            "mean_job_seconds": self.mean_job_seconds,
            "max_job_seconds": self.max_job_seconds,
            # always 0 (the executor never retries); kept because the end-to-end
            # benchmark's per-layer metrics (benchmarks/e2e/run.py,
            # program_counts) still read it
            "retry_attempts": 0,
            "workers": workers,
            "worker_utilization": self.worker_utilization(workers),
        }


class SweepExecutor:
    """Simulates batches of jobs, with an optional persistent store.

    Args:
        workers: the most worker processes a batch starts (a positive
            int).  A batch runs in-process when ``workers == 1`` or it
            holds one distinct job; otherwise it runs on one pool of
            ``min(workers, len(batch))`` processes.
        store: persistent result store consulted before simulating and
            updated afterwards; ``None`` disables persistence.
        ledger: run ledger every *simulated* cell is recorded into as it
            finishes (store hits are provenance the ledger already has --
            they ride on the sweep-level entry instead, so a warm sweep
            does not duplicate its whole history).  ``None`` disables
            recording.

    The pool is created per batch rather than held open, so a
    short-lived pool cannot leak workers into test runners or the CLI.
    That costs a pool round trip per batch, which is not noise for short
    jobs: on a shared 2-vCPU Xeon VM the two shards of the end-to-end
    benchmark's ``accel-sampled`` run took 0.14-0.24 s as one pooled
    batch, against 0.06-0.09 s to simulate one of them in-process -- hence
    the in-process path for a batch of one.

    Statistics accumulate over every batch the executor runs.
    """

    def __init__(
        self,
        workers: int = 1,
        store: Optional[ResultStore] = None,
        ledger: Optional[RunLedger] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self.store = store
        self.ledger = ledger
        self.stats = ExecutorStats()

    def run(self, jobs: Sequence[JobSpec]) -> list[RunReport]:
        """Resolve every job to a report, in input order.

        Store hits are loaded; the rest are simulated in one batch (the
        parallel fan-out point) and written back to the store as each one
        finishes, so even an interrupted sweep keeps its completed cells:
        re-running it loads those as store hits and simulates only the
        rest.  Duplicate jobs within a batch are simulated only once.

        Every job of the batch runs even when some fail: each failure is
        recorded on ``stats.failures``, and once the batch is done the
        error of the lowest failed batch index is re-raised.  An exception
        outside :class:`Exception` (Ctrl-C), or a failing store write,
        stops the batch at once; failures caught before it stay recorded.
        """
        jobs = list(jobs)
        reports: list[Optional[RunReport]] = [None] * len(jobs)
        loaded: dict[str, RunReport] = {}
        pending: dict[str, list[int]] = {}
        for index, job in enumerate(jobs):
            key = job.fingerprint()
            if key in loaded:  # duplicate of a store hit: no re-read, no recount
                reports[index] = loaded[key]
                continue
            if key in pending:  # duplicate within this batch
                pending[key].append(index)
                continue
            cached = self.store.load(key) if self.store is not None else None
            if cached is not None:
                loaded[key] = cached
                reports[index] = cached
                self.stats.runs_loaded += 1
            else:
                pending[key] = [index]
        if pending:
            keys = list(pending)
            batch = [jobs[pending[key][0]] for key in keys]
            started = time.perf_counter()
            try:
                fresh = self._simulate(keys, batch)
            finally:
                self.stats.batches += 1
                self.stats.batch_seconds += time.perf_counter() - started
            for key, report in zip(keys, fresh):
                for index in pending[key]:
                    reports[index] = report
        assert all(report is not None for report in reports)
        return reports  # type: ignore[return-value]

    def _simulate(self, keys: list[str], batch: list[JobSpec]) -> list[RunReport]:
        """Simulate every job of ``batch`` (store keys ``keys``), in order."""
        reports: list[Optional[RunReport]] = [None] * len(batch)
        errors: dict[int, str] = {}
        # only the error to re-raise is kept: an in-process exception's
        # traceback pins the failed run's whole simulator
        lowest: Optional[tuple[int, Exception]] = None

        def finish(index: int, report: RunReport, seconds: float) -> None:
            reports[index] = report
            self._persist(keys[index], batch[index], report, seconds)

        def fail(index: int, exc: Exception) -> None:
            nonlocal lowest
            errors[index] = repr(exc)
            if lowest is None or index < lowest[0]:
                lowest = (index, exc)

        try:
            if self.workers == 1 or len(batch) == 1:
                from repro.session import simulate

                for index, job in enumerate(batch):
                    started = time.perf_counter()
                    try:
                        report = simulate(job)
                    except Exception as exc:  # keep running the batch
                        fail(index, exc)
                        continue
                    finish(index, report, time.perf_counter() - started)
            else:
                self._run_pool(batch, finish, fail)
        finally:
            # failures caught before an escaping error (a failing store
            # write, Ctrl-C) are still accounted
            for index in sorted(errors):
                job = batch[index]
                self.stats.failures.append(
                    JobFailure(
                        index=index,
                        fingerprint=job.fingerprint(),
                        job=job.summary(),
                        error=errors[index],
                    )
                )
            self.stats.runs_failed += len(errors)
        if lowest is not None:
            raise lowest[1]
        return reports  # type: ignore[return-value]

    def _run_pool(
        self,
        batch: list[JobSpec],
        finish: Callable[[int, RunReport, float], None],
        fail: Callable[[int, Exception], None],
    ) -> None:
        """Fan ``batch`` out on one pool; a failed job goes to ``fail``.

        An exception escaping the drain (a failing store write, Ctrl-C)
        cancels the jobs not yet started and waits for the running ones:
        at most ``workers``, each bounded by the simulator's event budget.
        """
        # the pool machinery (multiprocessing) loads only when a batch
        # fans out, so a sweep served from the store never imports it
        from concurrent.futures import ProcessPoolExecutor, as_completed

        pool = ProcessPoolExecutor(max_workers=min(self.workers, len(batch)))
        try:
            # submit + as_completed (rather than pool.map) so each result
            # is stored the moment it lands, in completion order -- a slow
            # or failing early job cannot hold finished results hostage
            futures = {
                pool.submit(_execute_job_payload, job): index
                for index, job in enumerate(batch)
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    payload = future.result()
                    report = RunReport.from_dict(payload["report"])
                except Exception as exc:  # keep draining the batch
                    fail(index, exc)
                    continue
                finish(index, report, payload["elapsed_seconds"])
        finally:
            # the stdlib's ``with`` exit waits without cancelling, which
            # would run the whole rest of an interrupted batch
            pool.shutdown(wait=True, cancel_futures=True)

    def _persist(self, key: str, job: JobSpec, report: RunReport, seconds: float) -> None:
        """Account one finished job and write it to the store and ledger."""
        stats = self.stats
        stats.runs_simulated += 1
        stats.job_seconds += seconds
        stats.jobs_timed += 1
        stats.max_job_seconds = max(stats.max_job_seconds, seconds)
        if self.store is not None:
            self.store.save(key, report, job=job.summary())
        if self.ledger is not None:
            from repro.obs.ledger import run_entry

            self.ledger.record(
                run_entry(
                    kind="job",
                    fingerprint_hex=key,
                    workload=report.workload,
                    policy=report.policy,
                    cycles=report.cycles,
                    counters=report.counters,
                    wall_seconds=seconds,
                    source="executor",
                    extra={"job": job.summary()},
                )
            )

    def record_sweep(self, label: str = "sweep") -> Optional[dict[str, object]]:
        """Append one sweep-level aggregate entry to the ledger.

        Carries the executor telemetry (simulated/loaded/failed counts,
        store hit rate, batch and job wall time, worker
        utilization) -- the fleet-level record of how the sweep *executed*,
        complementing the per-cell ``job`` entries of what it computed.
        Returns the recorded entry, or ``None`` without a ledger.
        """
        if self.ledger is None:
            return None
        from repro.obs.ledger import run_entry

        return self.ledger.record(
            run_entry(
                kind="sweep",
                fingerprint_hex=None,
                workload=label,
                policy="*",
                telemetry=self.stats.telemetry(self.workers),
                source="executor",
            )
        )
