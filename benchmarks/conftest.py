"""Shared fixtures for the benchmark harness.

The harness regenerates every table and figure of the paper's evaluation.
All figure benchmarks share one session-scoped
:class:`~repro.experiments.runner.ExperimentRunner` and so its one
:class:`~repro.experiments.jobs.SweepExecutor`: the runner's in-process
memo dedupes (workload, policy) cells within the session, and the
executor's persistent :class:`~repro.experiments.store.ResultStore` (under
``benchmarks/.bench_store`` by default) carries finished reports across
harness invocations, so a re-run of the suite measures figure assembly on
a warm store instead of paying for every simulation again.  Each benchmark
prints the rendered figure, so the captured output (``bench_output.txt``)
doubles as the reproduction record referenced from EXPERIMENTS.md.

The harness always runs at :data:`BENCH_SCALE` on :data:`BENCH_CUS` CUs:
the figure assertions are claims about that configuration, and some of
them do not hold at smaller scales (EXPERIMENTS.md, "Scale dependence").
Smaller figure data comes from the CLI's ``--scale``/``--cus`` flags.

Environment knobs:

* ``REPRO_BENCH_JOBS``      -- worker processes for the sweeps (default 1;
  values above 1 fan the grid out with a process pool).
* ``REPRO_BENCH_CACHE_DIR`` -- result-store directory; set to the empty
  string to disable persistence entirely.
"""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path

import pytest

from repro.config import scaled_config
from repro.experiments import ExperimentRunner

#: workload scale factor the figure assertions are stated for
BENCH_SCALE = 1.0
#: CUs of the scaled system the assertions are stated for
BENCH_CUS = 8
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
#: default store lives next to the harness; "" disables persistence
BENCH_CACHE_DIR = os.environ.get(
    "REPRO_BENCH_CACHE_DIR", str(Path(__file__).parent / ".bench_store")
)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any benchmark that leaves a live ``multiprocessing`` child."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def bench_runner() -> ExperimentRunner:
    """The shared, memoizing experiment runner used by every figure bench.

    The runner wires its own executor: ``REPRO_BENCH_JOBS`` workers (a
    process pool per batch when above 1) and a persistent store at
    ``BENCH_CACHE_DIR``.
    """
    return ExperimentRunner(
        scale=BENCH_SCALE,
        config=scaled_config(BENCH_CUS),
        jobs=BENCH_JOBS,
        cache_dir=BENCH_CACHE_DIR or None,
    )


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    Simulation sweeps are long and deterministic; repeating them for
    statistical timing would multiply harness time for no insight.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
