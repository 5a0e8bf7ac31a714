"""Job-based sweep execution: one job per (workload, policy) grid cell.

The experiment drivers used to run every simulation inline and serially.
This module splits the *what* from the *how*:

* :class:`~repro.spec.JobSpec` names one simulation -- workload, scale,
  policy, system configuration and run axes -- and derives a stable
  content fingerprint from those inputs, which doubles as the key in the
  persistent :class:`~repro.experiments.store.ResultStore`.
* Backends turn a batch of jobs into reports: :class:`SerialBackend` runs
  them in-process (no overhead, deterministic ordering), while
  :class:`ProcessPoolBackend` fans independent jobs out across worker
  processes with :class:`concurrent.futures.ProcessPoolExecutor`.  Grid
  cells share no state, so the parallel speedup is essentially linear
  until the machine runs out of cores.
* :class:`SweepExecutor` composes a backend with an optional store:
  store hits are loaded, misses are simulated on the backend and written
  back, and both counts are tracked so callers can assert cache
  effectiveness.

Every simulation is deterministic, so a report loaded from the store (or
computed in a worker process) is bit-identical to one computed inline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Protocol, Sequence

from repro.experiments.store import ResultStore
from repro.spec import JobSpec
from repro.stats.report import RunReport

if TYPE_CHECKING:
    from repro.obs.ledger import RunLedger

__all__ = [
    "JobSpec",
    "JobFailure",
    "ExecutorStats",
    "SerialBackend",
    "ProcessPoolBackend",
    "SweepExecutor",
    "execute_job",
]

def execute_job(job: JobSpec) -> RunReport:
    """Simulate one job to completion (the unit of work for all backends).

    The simulator is imported here, by the first job that needs it, so a
    sweep served entirely from the store never loads it.
    """
    from repro.session import simulate

    return simulate(job)


def _execute_job_payload(job: JobSpec) -> dict[str, object]:
    """Worker-side entry point: ship the report back as primitives.

    Returning ``to_dict()`` output instead of the dataclass keeps the
    parent<->worker contract identical to the store's JSON contract, so a
    report that crossed a process boundary compares equal to one that was
    simulated inline or loaded from disk.  The worker also measures its own
    wall time -- queueing and pickling excluded -- which feeds the sweep
    telemetry's worker-utilization accounting.
    """
    started = time.perf_counter()
    report = execute_job(job).to_dict()
    return {"report": report, "elapsed_seconds": time.perf_counter() - started}


#: per-result callback: (index within the batch, finished report)
ResultCallback = Callable[[int, RunReport], None]


@dataclass(frozen=True)
class JobFailure:
    """Structured record of one job that a backend could not complete.

    Backends keep the batch draining when a job raises or its worker
    dies; every such job becomes one of these on ``backend.failures``
    (and, via the executor, on ``ExecutorStats.failures``) -- a worker
    crash is data, not a silent hole in the sweep.
    """

    #: position of the job in the submitted batch
    index: int
    #: the job's store fingerprint (joins failures to grid cells)
    fingerprint: str
    #: human-readable job inputs (:meth:`JobSpec.summary`)
    job: dict[str, object]
    #: ``repr`` of the exception (a BrokenProcessPool for a dead worker)
    error: str


class SweepBackend(Protocol):
    """Anything that can turn a batch of jobs into reports, in order.

    ``on_result`` (when given) is invoked in the *calling* process as each
    job finishes, before the batch completes -- the executor uses it to
    persist results incrementally, so an interrupted sweep keeps every
    cell that finished.
    """

    def run_jobs(
        self, jobs: Sequence[JobSpec], on_result: Optional[ResultCallback] = None
    ) -> list[RunReport]:
        ...  # pragma: no cover - protocol


def _failure(job: JobSpec, index: int, exc: BaseException) -> JobFailure:
    return JobFailure(
        index=index, fingerprint=job.fingerprint(), job=job.summary(), error=repr(exc)
    )


def _run_inline(
    jobs: Sequence[JobSpec],
    on_result: Optional[ResultCallback],
    failures: list[JobFailure],
    job_seconds: dict[int, float],
) -> list[RunReport]:
    """Run ``jobs`` one after another in the calling process.

    A raising job stops the batch once its failure is on ``failures``.
    """
    reports = []
    for index, job in enumerate(jobs):
        started = time.perf_counter()
        try:
            report = execute_job(job)
        except BaseException as exc:
            failures.append(_failure(job, index, exc))
            raise
        job_seconds[index] = time.perf_counter() - started
        if on_result is not None:
            on_result(index, report)
        reports.append(report)
    return reports


class SerialBackend:
    """Run every job in the calling process, one after another.

    A raising job still stops the batch (serial runs are the debugging
    path; fail fast, keep the traceback), but the failure is recorded on
    :attr:`failures` first so the executor can account for it.
    """

    def __init__(self) -> None:
        #: structured records of jobs that raised, reset per batch
        self.failures: list[JobFailure] = []
        #: per-batch wall seconds of each finished job, by batch index
        self.job_seconds: dict[int, float] = {}

    def run_jobs(
        self, jobs: Sequence[JobSpec], on_result: Optional[ResultCallback] = None
    ) -> list[RunReport]:
        self.failures = []
        self.job_seconds = {}
        return _run_inline(jobs, on_result, self.failures, self.job_seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialBackend()"


class ProcessPoolBackend:
    """Fan independent jobs out across worker processes.

    Args:
        max_workers: the most worker processes a batch starts (a positive
            int); a batch of fewer jobs starts one worker per job.

    The pool is created per batch rather than held open, so a
    short-lived pool cannot leak workers into test runners or the CLI.
    That costs a pool round trip per batch, which is not noise for short
    jobs: on a shared 2-vCPU Xeon VM the two shards of the end-to-end
    benchmark's ``accel-sampled`` run took 0.14-0.24 s as one pooled
    batch, against 0.06-0.09 s to simulate one of them in-process.  So a
    batch of one job runs in-process, as on :class:`SerialBackend`, and
    :class:`SweepExecutor` hands the backend each distinct job once.

    A job that raises (or whose worker dies) is recorded on
    :attr:`failures` as a :class:`JobFailure` while the batch keeps
    draining, so every finished job still reaches ``on_result`` -- and a
    sweep with a persistent store loses nothing but the failed cells.
    The first error is then re-raised.  An exception escaping the drain
    (an ``on_result`` that raises, Ctrl-C) cancels the jobs not yet
    started and waits for the running ones: at most ``max_workers``,
    each bounded by the simulator's event budget.
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        #: structured records of the last batch's failed jobs
        self.failures: list[JobFailure] = []
        #: per-batch worker-side wall seconds of each finished job
        self.job_seconds: dict[int, float] = {}

    def run_jobs(
        self, jobs: Sequence[JobSpec], on_result: Optional[ResultCallback] = None
    ) -> list[RunReport]:
        jobs = list(jobs)
        self.failures = []
        self.job_seconds = {}
        if len(jobs) <= 1:  # a pool fork for a single job is pure overhead
            return _run_inline(jobs, on_result, self.failures, self.job_seconds)
        # the pool machinery (multiprocessing) loads only when a batch
        # fans out, so a sweep served from the store never imports it
        from concurrent.futures import ProcessPoolExecutor, as_completed

        workers = min(self.max_workers, len(jobs))
        reports: list[Optional[RunReport]] = [None] * len(jobs)
        errors: dict[int, Exception] = {}
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            # submit + as_completed (rather than pool.map) so the callback
            # fires the moment any job lands, in completion order -- a slow
            # or failing early job cannot hold finished results hostage
            futures = {
                pool.submit(_execute_job_payload, job): index
                for index, job in enumerate(jobs)
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    payload = future.result()
                    report = RunReport.from_dict(payload["report"])
                except Exception as exc:  # keep draining the batch
                    errors[index] = exc
                    continue
                self.job_seconds[index] = payload["elapsed_seconds"]
                reports[index] = report
                if on_result is not None:
                    on_result(index, report)
        finally:
            # the stdlib's ``with`` exit waits without cancelling, which
            # would run the whole rest of an interrupted batch
            pool.shutdown(wait=True, cancel_futures=True)
        if errors:
            for index in sorted(errors):
                self.failures.append(_failure(jobs[index], index, errors[index]))
            raise errors[min(errors)]
        return reports  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessPoolBackend(max_workers={self.max_workers})"


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
    #: backend batches dispatched (store-only sweeps dispatch none)
    batches: int = 0
    #: wall seconds spent inside backend batches, end to end
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
            # always 0 (backends never retry); kept because the end-to-end
            # benchmark's per-layer metrics (benchmarks/e2e/run.py,
            # program_counts) still read it
            "retry_attempts": 0,
            "workers": workers,
            "worker_utilization": self.worker_utilization(workers),
        }


class SweepExecutor:
    """A backend plus an optional persistent store, with hit accounting.

    Args:
        backend: how cache-missing jobs are simulated (default: serial).
        store: persistent result store consulted before simulating and
            updated afterwards; ``None`` disables persistence.
        ledger: run ledger every *simulated* cell is recorded into as it
            finishes (store hits are provenance the ledger already has --
            they ride on the sweep-level entry instead, so a warm sweep
            does not duplicate its whole history).  ``None`` disables
            recording.

    One executor may be shared by any number of
    :class:`~repro.experiments.runner.ExperimentRunner` instances (the
    benchmark harness does exactly that), in which case its statistics
    aggregate across all of them.
    """

    def __init__(
        self,
        backend: Optional[SweepBackend] = None,
        store: Optional[ResultStore] = None,
        ledger: Optional[RunLedger] = None,
    ) -> None:
        self.backend: SweepBackend = backend or SerialBackend()
        self.store = store
        self.ledger = ledger
        self.stats = ExecutorStats()

    def _record_failures(self) -> None:
        """Harvest the backend's per-batch failure records into the stats."""
        failures = getattr(self.backend, "failures", None)
        if failures:
            self.stats.failures.extend(failures)
            self.stats.runs_failed += len(failures)

    def _record_batch(self, seconds: float) -> None:
        """Harvest one batch's timing telemetry into the stats.

        Tolerant of third-party backends: a backend without ``job_seconds``
        still gets batch-level accounting.
        """
        stats = self.stats
        stats.batches += 1
        stats.batch_seconds += seconds
        job_seconds = getattr(self.backend, "job_seconds", None)
        if job_seconds:
            for value in job_seconds.values():
                stats.job_seconds += value
                stats.jobs_timed += 1
                if value > stats.max_job_seconds:
                    stats.max_job_seconds = value

    def run(self, jobs: Sequence[JobSpec]) -> list[RunReport]:
        """Resolve every job to a report, in input order.

        Store hits are loaded; the rest are simulated on the backend in one
        batch (the parallel fan-out point) and written back to the store as
        each one finishes, so even an interrupted sweep keeps its completed
        cells: re-running it loads those as store hits and simulates only
        the rest.  Duplicate jobs within a batch are simulated only once.
        A failed job is recorded on ``stats.failures`` before its error
        propagates; on a :class:`ProcessPoolBackend` the rest of the batch
        still finishes and is stored first.
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

            def persist(batch_index: int, report: RunReport) -> None:
                self.stats.runs_simulated += 1
                key = keys[batch_index]
                if self.store is not None:
                    self.store.save(key, report, job=batch[batch_index].summary())
                if self.ledger is not None:
                    from repro.obs.ledger import run_entry

                    # both backends set job_seconds[batch_index] before the
                    # callback fires, so wall time is available here
                    seconds = getattr(self.backend, "job_seconds", {}).get(batch_index)
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
                            extra={"job": batch[batch_index].summary()},
                        )
                    )

            batch_started = time.perf_counter()
            try:
                fresh = self.backend.run_jobs(batch, on_result=persist)
            finally:
                self._record_failures()
                self._record_batch(time.perf_counter() - batch_started)
            for key, report in zip(keys, fresh):
                for index in pending[key]:
                    reports[index] = report
        assert all(report is not None for report in reports)
        return reports  # type: ignore[return-value]

    def run_one(self, job: JobSpec) -> RunReport:
        """Convenience wrapper for a single job."""
        return self.run([job])[0]

    def record_sweep(
        self, label: str = "sweep", workers: int = 1
    ) -> Optional[dict[str, object]]:
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
                telemetry=self.stats.telemetry(workers),
                source="executor",
            )
        )
