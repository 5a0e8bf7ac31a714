"""Shared sweep executor for the experiment drivers and benchmarks.

Running the full evaluation requires simulating every workload under up to
six policies, and every study adds one axis to that grid (adaptive
candidates, device counts, serving mixes).  Each study builds
its own :class:`~repro.spec.JobSpec` jobs and hands them to
:meth:`ExperimentRunner.run`, the one grid method, which delegates them to
a :class:`~repro.experiments.jobs.SweepExecutor` that can fan independent
grid cells out across worker processes and persist finished reports in an
on-disk :class:`~repro.experiments.store.ResultStore`.  The runner keeps
its own in-process memo, keyed by the job itself, as an L1 over the store,
so figures that share data (e.g. Figures 6-9 all use the static-policy
sweep) only pay for each simulation once within a process -- and, with a
store attached, only once *ever* for a given configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.config import SystemConfig, default_config
from repro.core.policies import STATIC_POLICIES, PolicySpec
from repro.experiments.jobs import JobSpec, SweepExecutor
from repro.experiments.store import ResultStore
from repro.stats.report import RunReport
from repro.workloads.registry import WORKLOAD_NAMES

__all__ = ["ExperimentRunner", "SweepResult"]


@dataclass
class SweepResult:
    """Reports for a (workload x policy) grid."""

    reports: dict[tuple[str, str], RunReport] = field(default_factory=dict)

    def add(self, report: RunReport) -> None:
        self.reports[(report.workload, report.policy)] = report

    def get(self, workload: str, policy: str) -> RunReport:
        return self.reports[(workload, policy)]

    def workloads(self) -> list[str]:
        seen: list[str] = []
        for workload, _policy in self.reports:
            if workload not in seen:
                seen.append(workload)
        return seen

    def policies(self) -> list[str]:
        seen: list[str] = []
        for _workload, policy in self.reports:
            if policy not in seen:
                seen.append(policy)
        return seen


class ExperimentRunner:
    """Runs and memoizes simulations, one :class:`JobSpec` per grid cell.

    Args:
        scale: workload scale factor passed to the trace generators.
        config: system configuration (defaults to the scaled 8-CU system).
        workload_names: subset of workloads to evaluate (defaults to all 18).
        jobs: worker process count (a positive int); values above 1 fan
            each batch of grid cells out across that many processes.
        cache_dir: directory for the persistent result store; ``None``
            keeps results in-process only.
        ledger_path: run-ledger JSONL file every simulated cell (and the
            sweep aggregate, via ``executor.record_sweep``) is recorded
            into; ``None`` disables provenance recording.

    The runner builds its own :class:`SweepExecutor` from ``jobs``,
    ``cache_dir`` and ``ledger_path``.
    """

    def __init__(
        self,
        scale: float = 1.0,
        config: Optional[SystemConfig] = None,
        workload_names: Optional[Sequence[str]] = None,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        ledger_path: Optional[str] = None,
    ) -> None:
        self.scale = scale
        self.config = config or default_config()
        self.workload_names = tuple(workload_names or WORKLOAD_NAMES)
        ledger = None
        if ledger_path is not None:
            from repro.obs.ledger import RunLedger

            ledger = RunLedger(ledger_path)
        self.executor = SweepExecutor(
            workers=jobs,
            store=ResultStore(cache_dir) if cache_dir is not None else None,
            ledger=ledger,
        )
        self._cache: dict[JobSpec, RunReport] = {}
        self._memo_hits = 0

    # ------------------------------------------------------------------
    def run(self, jobs: Iterable[JobSpec]) -> list[RunReport]:
        """Resolve every job to a report, in input order, memoized in-process.

        The memo is keyed by the frozen :class:`JobSpec` itself, so two
        requests for the same simulation share one report whichever study
        asked.  Jobs already memoized, and repeats within the batch, count
        as memo hits; the rest go to the executor as one batch -- the
        parallel fan-out point.
        """
        jobs = list(jobs)
        reports = [self._cache.get(job) for job in jobs]
        pending = list(
            dict.fromkeys(job for job, report in zip(jobs, reports) if report is None)
        )
        self._memo_hits += len(jobs) - len(pending)
        if not pending:
            return reports  # type: ignore[return-value]
        self._cache.update(zip(pending, self.executor.run(pending)))
        return [self._cache[job] for job in jobs]

    def sweep(
        self,
        policies: Iterable[PolicySpec] = STATIC_POLICIES,
        workload_names: Optional[Sequence[str]] = None,
    ) -> SweepResult:
        """Simulate every requested workload under every requested policy."""
        names = tuple(workload_names or self.workload_names)
        policy_list = tuple(policies)
        result = SweepResult()
        for report in self.run(
            JobSpec(workload=name, policy=policy, scale=self.scale, config=self.config)
            for name in names
            for policy in policy_list
        ):
            result.add(report)
        return result

    # ------------------------------------------------------------------
    def cached_runs(self) -> int:
        """Number of simulations memoized in-process so far."""
        return len(self._cache)

    @property
    def runs_simulated(self) -> int:
        """Reports this runner's executor actually simulated."""
        return self.executor.stats.runs_simulated

    @property
    def runs_loaded(self) -> int:
        """Reports this runner's executor served from the persistent store."""
        return self.executor.stats.runs_loaded

    @property
    def memo_hits(self) -> int:
        """Requests answered from the in-process memo (L1) alone."""
        return self._memo_hits

    def stats(self) -> dict[str, int]:
        """Cache-effectiveness accounting for benchmarks and the CLI."""
        return {
            "runs_simulated": self.runs_simulated,
            "runs_loaded": self.runs_loaded,
            "runs_failed": self.executor.stats.runs_failed,
            "memo_hits": self._memo_hits,
            "cached_runs": len(self._cache),
        }
