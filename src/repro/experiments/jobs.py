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
from repro.log import get_logger
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

#: run-scoped structured logger (silent unless repro.log.configure ran)
_log = get_logger("executor")


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

    Backends keep the batch draining when a worker dies, times out or
    raises; every job still unfinished after the final retry becomes one
    of these on ``backend.failures`` (and, via the executor, on
    ``ExecutorStats.failures``) -- a worker crash is data, not a silent
    hole in the sweep.
    """

    #: position of the job in the submitted batch
    index: int
    #: the job's store fingerprint (joins failures to grid cells)
    fingerprint: str
    #: human-readable job inputs (:meth:`JobSpec.summary`)
    job: dict[str, object]
    #: ``repr`` of the final exception (a TimeoutError for hung jobs)
    error: str
    #: batch attempts made before giving up (1 = no retries)
    attempts: int

    def as_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "fingerprint": self.fingerprint,
            "job": dict(self.job),
            "error": self.error,
            "attempts": self.attempts,
        }


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


def _failure(job: JobSpec, index: int, exc: BaseException, attempts: int) -> JobFailure:
    return JobFailure(
        index=index,
        fingerprint=job.fingerprint(),
        job=job.summary(),
        error=repr(exc),
        attempts=attempts,
    )


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
        #: batch attempts of the last run (serial never retries)
        self.last_attempts = 1

    def run_jobs(
        self, jobs: Sequence[JobSpec], on_result: Optional[ResultCallback] = None
    ) -> list[RunReport]:
        self.failures = []
        self.job_seconds = {}
        reports = []
        for index, job in enumerate(jobs):
            started = time.perf_counter()
            try:
                report = execute_job(job)
            except BaseException as exc:
                self.failures.append(_failure(job, index, exc, attempts=1))
                raise
            self.job_seconds[index] = time.perf_counter() - started
            if on_result is not None:
                on_result(index, report)
            reports.append(report)
        return reports

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialBackend()"


class ProcessPoolBackend:
    """Fan independent jobs out across worker processes.

    Args:
        max_workers: worker process count (``None`` lets
            :class:`~concurrent.futures.ProcessPoolExecutor` use one per
            core).
        timeout: wall-clock seconds the whole batch may go without any job
            finishing before the remaining jobs are declared hung and the
            pool abandoned, its workers stopped (``None`` waits forever).
            Hung jobs are retried like crashed ones.
        retries: extra whole-pool attempts for jobs that crash, hang or
            raise.  A worker killed by the OS (OOM, SIGKILL) poisons the
            entire pool, so each retry starts a fresh pool containing only
            the still-unfinished jobs.
        retry_backoff: base seconds slept before retry ``n`` (exponential:
            ``retry_backoff * 2**(n-1)``); ``0`` retries immediately.

    The pool is created per attempt rather than held open: sweep batches
    are coarse (each job is a whole simulation), so the fork cost is noise,
    a short-lived pool cannot leak workers into test runners or the CLI,
    and a broken pool (dead worker) never contaminates the retry.

    After every batch, jobs that still failed after the final attempt are
    recorded on :attr:`failures` as :class:`JobFailure` entries; the first
    error is then re-raised so callers that expect exceptions keep working.
    Finished jobs were already delivered through ``on_result``, so a sweep
    with a persistent store loses nothing but the failed cells.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        retry_backoff: float = 0.5,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.max_workers = max_workers
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        #: structured records of jobs unfinished after the final attempt
        self.failures: list[JobFailure] = []
        #: per-batch worker-side wall seconds of each finished job
        self.job_seconds: dict[int, float] = {}
        #: pool attempts the last batch needed (1 = no retries)
        self.last_attempts = 1

    def _sleep_before_retry(self, attempt: int) -> None:
        if self.retry_backoff > 0:
            time.sleep(self.retry_backoff * (2 ** (attempt - 1)))

    def run_jobs(
        self, jobs: Sequence[JobSpec], on_result: Optional[ResultCallback] = None
    ) -> list[RunReport]:
        jobs = list(jobs)
        self.failures = []
        self.job_seconds = {}
        self.last_attempts = 1
        if not jobs:
            return []
        if len(jobs) == 1:
            return self._run_single(jobs[0], on_result)
        reports: list[Optional[RunReport]] = [None] * len(jobs)
        pending = list(range(len(jobs)))
        errors: dict[int, BaseException] = {}
        attempt = 0
        while pending:
            attempt += 1
            self.last_attempts = attempt
            if attempt > 1:
                self._sleep_before_retry(attempt - 1)
            errors_now = self._run_attempt(
                jobs, pending, reports, on_result, attempt
            )
            errors.update(errors_now)
            pending = sorted(errors_now)
            if pending and _log.enabled:
                _log.warning(
                    "batch_attempt_failed",
                    attempt=attempt,
                    failed=len(pending),
                    retries_left=max(0, self.retries + 1 - attempt),
                    first_error=repr(errors[pending[0]]),
                )
            if attempt >= self.retries + 1:
                break
        if pending:
            for index in pending:
                self.failures.append(
                    _failure(jobs[index], index, errors[index], attempts=attempt)
                )
            _log.error(
                "jobs_failed",
                count=len(pending),
                attempts=attempt,
                error=repr(errors[pending[0]]),
            )
            raise errors[pending[0]]
        assert all(report is not None for report in reports)
        return reports  # type: ignore[return-value]

    def _run_single(
        self, job: JobSpec, on_result: Optional[ResultCallback]
    ) -> list[RunReport]:
        # a pool fork for a single job is pure overhead: run in-process,
        # still honouring the retry budget (timeouts need a pool; a single
        # in-process job cannot be interrupted, so none is enforced here)
        attempt = 0
        while True:
            attempt += 1
            self.last_attempts = attempt
            started = time.perf_counter()
            try:
                report = execute_job(job)
                break
            except BaseException as exc:
                if attempt >= self.retries + 1:
                    self.failures.append(_failure(job, 0, exc, attempts=attempt))
                    _log.error("job_failed", attempts=attempt, error=repr(exc))
                    raise
                _log.warning(
                    "job_retry",
                    attempt=attempt,
                    retries_left=self.retries + 1 - attempt,
                    error=repr(exc),
                )
                self._sleep_before_retry(attempt)
        self.job_seconds[0] = time.perf_counter() - started
        if on_result is not None:
            on_result(0, report)
        return [report]

    def _run_attempt(
        self,
        jobs: Sequence[JobSpec],
        pending: Sequence[int],
        reports: list[Optional[RunReport]],
        on_result: Optional[ResultCallback],
        attempt: int,
    ) -> dict[int, BaseException]:
        """One fresh pool over the still-unfinished jobs; returns its errors."""
        # the pool machinery (multiprocessing) loads only when a batch
        # fans out, so a sweep served from the store never imports it
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures import TimeoutError as FuturesTimeoutError

        workers = self.max_workers
        if workers is not None:
            workers = min(workers, len(pending))
        errors: dict[int, BaseException] = {}
        abandon = False
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            # submit + as_completed (rather than pool.map) so the callback
            # fires the moment any job lands, in completion order -- a slow
            # or failing early job cannot hold finished results hostage
            futures = {
                pool.submit(_execute_job_payload, jobs[index]): index
                for index in pending
            }
            try:
                for future in as_completed(futures, timeout=self.timeout):
                    index = futures[future]
                    try:
                        payload = future.result()
                        report = RunReport.from_dict(payload["report"])
                    except BaseException as exc:  # keep draining the batch
                        errors[index] = exc
                        continue
                    self.job_seconds[index] = float(
                        payload.get("elapsed_seconds", 0.0)
                    )
                    reports[index] = report
                    if on_result is not None:
                        on_result(index, report)
            except FuturesTimeoutError:
                abandon = True
                for index in futures.values():
                    if reports[index] is None and index not in errors:
                        errors[index] = FuturesTimeoutError(
                            f"job did not finish within {self.timeout}s "
                            f"(attempt {attempt})"
                        )
            except BaseException:
                # a non-job exception escaping the drain loop (an
                # on_result callback raising, KeyboardInterrupt, ...)
                # must not wait on still-running -- possibly stuck --
                # workers either; abandon the pool and let it propagate
                abandon = True
                raise
        finally:
            # never hold the sweep hostage for a pool being discarded:
            # on timeout or any escaping exception, stop its workers (a
            # hung one would otherwise outlive the sweep), shut down
            # without waiting and let a fresh pool run the retry
            if abandon:
                # no public API stops running workers before 3.14's terminate_workers()
                for process in list(pool._processes.values()):
                    process.terminate()
                    process.join()
            pool.shutdown(wait=not abandon, cancel_futures=True)
        return errors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessPoolBackend(max_workers={self.max_workers}, "
            f"timeout={self.timeout}, retries={self.retries})"
        )


@dataclass
class ExecutorStats:
    """Where the executor's reports came from (cumulative), plus the sweep
    telemetry: batch and per-job wall time, retry pressure, and the worker
    utilization they imply."""

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
    #: extra batch attempts beyond the first (crashes, hangs, retries)
    retry_attempts: int = 0

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

    def as_dict(self) -> dict[str, int]:
        return {
            "runs_simulated": self.runs_simulated,
            "runs_loaded": self.runs_loaded,
            "runs_failed": self.runs_failed,
        }

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
            "retry_attempts": self.retry_attempts,
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
        / ``last_attempts`` still gets batch-level accounting.
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
        attempts = getattr(self.backend, "last_attempts", 1)
        stats.retry_attempts += max(0, attempts - 1)

    def run(self, jobs: Sequence[JobSpec]) -> list[RunReport]:
        """Resolve every job to a report, in input order.

        Store hits are loaded; the rest are simulated on the backend in one
        batch (the parallel fan-out point) and written back to the store as
        each one finishes, so even an interrupted sweep keeps its completed
        cells: re-running it loads those as store hits and simulates only
        the rest.  Duplicate jobs within a batch are simulated only once.
        Failed jobs are recorded on ``stats.failures`` before the error
        propagates.
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
        store hit rate, batch and job wall time, retry pressure, worker
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
