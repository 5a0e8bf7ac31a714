"""Cache-effectiveness assertions for the harness runner and its store.

The figure benchmarks all pull from one session-scoped runner; this module
asserts that sharing actually works: re-requesting an already-materialized
sweep is answered entirely by the in-process memo, and every report the
executor resolved was either simulated exactly once or served from the
persistent store (never simulated twice).
"""

from __future__ import annotations

from repro.experiments import ExperimentRunner


def test_repeat_sweep_is_free(bench_runner: ExperimentRunner) -> None:
    """A repeated static-policy sweep must not reach the executor at all."""
    bench_runner.sweep()  # warm (or confirm) the static grid
    before = bench_runner.stats()
    bench_runner.sweep()
    after = bench_runner.stats()
    assert after["runs_simulated"] == before["runs_simulated"]
    assert after["runs_loaded"] == before["runs_loaded"]
    assert after["memo_hits"] > before["memo_hits"]


def test_every_memoized_report_resolved_once(bench_runner: ExperimentRunner) -> None:
    """Executor resolutions account 1:1 for the memoized grid cells."""
    stats = bench_runner.stats()
    assert stats["runs_simulated"] + stats["runs_loaded"] == stats["cached_runs"]
