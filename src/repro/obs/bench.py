"""The regression sentinel's measurement harness.

One fixed reference benchmark -- the CM composed model at scale 1.0 on
the 4-CU system under CacheRW, the same recipe ``benchmarks/
test_perf_smoke.py`` has tracked since PR 2 -- measured as a
**median of N** timed repetitions instead of a single sample.  The run is
deterministic, so every repetition executes the identical event stream
and the spread between repetitions is pure machine noise; the median is
robust to one slow outlier in a way best-of-N and mean-of-N are not.

Each measurement appends one JSONL entry to ``BENCH_history.jsonl``
(gitignored; CI uploads it as an artifact), and
:func:`evaluate_measurement` judges a new number against two floors via
:func:`repro.stats.regression.check_regression`:

* the committed reference-container baseline in ``BENCH_core.json``
  (flat ``max_regression`` gate -- the catastrophic floor), and
* this machine's own history (median - k*MAD robust floor), which adapts
  to the hardware actually running the suite instead of assuming the
  reference container.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.config import scaled_config
from repro.core.policies import CACHE_RW
from repro.ioutil import append_jsonl, read_jsonl
from repro.stats.regression import RegressionVerdict, check_regression, median
from repro.workloads.registry import get_workload

__all__ = [
    "BenchMeasurement",
    "append_history",
    "committed_baseline",
    "default_history_path",
    "effective_reference",
    "evaluate_measurement",
    "history_entry",
    "load_history",
    "measure_core_throughput",
    "measure_effective_throughput",
]

#: history entry schema; bump when the entry shape changes incompatibly
HISTORY_SCHEMA = 1

#: the benchmark name stamped into history entries (one history file can
#: hold several benchmarks; loads filter on this)
CORE_BENCHMARK = "core_events_per_second"

#: the fixed reference run (must match benchmarks/test_perf_smoke.py;
#: if it ever changes, re-measure the committed baseline in the same
#: commit and start a fresh history)
REFERENCE_WORKLOAD = "CM"
REFERENCE_SCALE = 1.0
REFERENCE_CUS = 4

#: the *effective*-throughput benchmark: represented (simulated +
#: extrapolated) events per wall-clock second with both acceleration
#: modes on -- phase-sampled fast-forward composed with sharded
#: execution.  The recipe is repetition-heavy on purpose: FwLSTM's
#: per-timestep kernels are where sampling earns its keep.
EFFECTIVE_BENCHMARK = "effective_events_per_second"
EFFECTIVE_WORKLOAD = "FwLSTM"
EFFECTIVE_SCALE = 8.0
EFFECTIVE_STREAMS = 4
EFFECTIVE_CUS = 16
EFFECTIVE_SHARDS = 4

_REPO_ROOT = Path(__file__).resolve().parents[3]


def default_history_path() -> Path:
    """``$REPRO_BENCH_HISTORY`` if set, else ``BENCH_history.jsonl`` next
    to the committed ``BENCH_core.json`` at the repository root."""
    override = os.environ.get("REPRO_BENCH_HISTORY")
    if override:
        return Path(override).expanduser()
    return _REPO_ROOT / "BENCH_history.jsonl"


def committed_baseline(
    path: Optional[Path] = None, section: Optional[str] = None
) -> Optional[float]:
    """The committed reference-container baseline, or ``None`` when the
    record is absent or unparseable (the flat gate then stays off).

    ``section`` selects a nested benchmark record inside
    ``BENCH_core.json`` (e.g. ``"topology"`` or ``"effective"``); the
    default reads the top-level core benchmark.
    """
    target = path if path is not None else _REPO_ROOT / "BENCH_core.json"
    try:
        record = json.loads(Path(target).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if section is not None:
        record = record.get(section)
        if not isinstance(record, dict):
            return None
    baseline = record.get("regression_baseline") or record.get("events_per_sec")
    return float(baseline) if baseline else None


@dataclass(frozen=True)
class BenchMeasurement:
    """One median-of-N throughput measurement of a reference run.

    For the effective benchmark, ``events`` counts *represented* events
    (simulated plus extrapolated) and ``executed_events`` the subset the
    shards actually simulated; for the exact core benchmark the two
    coincide and ``executed_events`` stays ``None``.
    """

    benchmark: str
    events: int
    cycles: int
    #: wall time of each repetition, in sampling order
    seconds: tuple[float, ...]
    #: events actually simulated (None = exact run, equals ``events``)
    executed_events: Optional[int] = None
    #: reference-run metadata stamped into history entries; ``None``
    #: falls back to the core reference block
    reference: Optional[dict] = None

    @property
    def samples(self) -> int:
        return len(self.seconds)

    @property
    def median_seconds(self) -> float:
        return median(self.seconds)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.median_seconds

    @property
    def best_seconds(self) -> float:
        return min(self.seconds)

    @property
    def best_events_per_sec(self) -> float:
        """Throughput of the fastest repetition.

        The reference run is deterministic, so the fastest sample is the
        truest measure of what the *code* can do -- anything slower is
        host interference.  The committed flat gate judges this number
        (machine capability, load-insensitive); the history MAD gate
        judges the median (the typical run, which is what the history
        records).
        """
        return self.events / self.best_seconds


def measure_core_throughput(samples: int = 3, warmup: bool = True) -> BenchMeasurement:
    """Time ``samples`` repetitions of the reference run.

    The event count and cycle count are identical across repetitions
    (asserted -- a mismatch means the model went nondeterministic, which
    this harness must never paper over with a median).
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    # imported here, not at module level, so reading or checking the
    # history never loads the simulator
    from repro.session import SimulationSession

    trace = get_workload(REFERENCE_WORKLOAD, scale=REFERENCE_SCALE).build_trace()
    if warmup:
        # one short run so allocator/import effects don't bias the first sample
        small = SimulationSession(policy=CACHE_RW, config=scaled_config(2))
        small.run(get_workload(REFERENCE_WORKLOAD, scale=0.1))
    seconds: list[float] = []
    events = cycles = None
    for _ in range(samples):
        session = SimulationSession(policy=CACHE_RW, config=scaled_config(REFERENCE_CUS))
        start = time.perf_counter()
        run_cycles = session.run(trace).cycles
        seconds.append(time.perf_counter() - start)
        run_events = session.sim.queue.executed
        if events is None:
            events, cycles = run_events, run_cycles
        elif (run_events, run_cycles) != (events, cycles):
            raise AssertionError(
                f"reference run went nondeterministic: {run_events} events/"
                f"{run_cycles} cycles vs {events}/{cycles} on an earlier sample"
            )
    assert events is not None and cycles is not None
    return BenchMeasurement(
        benchmark=CORE_BENCHMARK,
        events=events,
        cycles=cycles,
        seconds=tuple(seconds),
    )


def effective_reference() -> dict[str, object]:
    """The effective benchmark's reference-run metadata block."""
    return {
        "workload": EFFECTIVE_WORKLOAD,
        "scale": EFFECTIVE_SCALE,
        "streams": EFFECTIVE_STREAMS,
        "num_cus": EFFECTIVE_CUS,
        "shards": EFFECTIVE_SHARDS,
        "policy": CACHE_RW.name,
        "sampling": {"warmup_instances": 1, "measure_instances": 1},
    }


def measure_effective_throughput(
    samples: int = 3, warmup: bool = True
) -> BenchMeasurement:
    """Time ``samples`` repetitions of the accelerated reference run.

    The run is ``EFFECTIVE_STREAMS`` partitioned FwLSTM tenants at scale
    ``EFFECTIVE_SCALE`` on the ``EFFECTIVE_CUS``-CU system, split into
    ``EFFECTIVE_SHARDS`` worker processes with aggressive phase sampling
    (one warmup + one measured instance per kernel signature).  The
    *represented* event count -- simulated plus extrapolated -- is the
    throughput numerator; like the core benchmark it must be identical
    across repetitions, or the acceleration stack went nondeterministic.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    from repro.accel.config import SamplingConfig, ShardConfig
    from repro.session import simulate
    from repro.spec import JobSpec
    from repro.streams.config import StreamConfig

    def spec(streams: int, scale: float, shards: int) -> JobSpec:
        return JobSpec(
            policy=CACHE_RW,
            config=scaled_config(EFFECTIVE_CUS),
            streams=tuple(
                StreamConfig(workload=EFFECTIVE_WORKLOAD, scale=scale, cu_share="partitioned")
                for _ in range(streams)
            ),
            sampling=SamplingConfig(warmup_instances=1, measure_instances=1),
            shards=ShardConfig(num_shards=shards, axis="streams"),
        )

    reference = spec(EFFECTIVE_STREAMS, EFFECTIVE_SCALE, EFFECTIVE_SHARDS)
    if warmup:
        # a small sharded run pays the one-time fork/import costs so the
        # first timed sample is not charged for them
        simulate(spec(2, 0.5, 2))
    seconds: list[float] = []
    represented = executed = cycles = None
    for _ in range(samples):
        start = time.perf_counter()
        report = simulate(reference)
        seconds.append(time.perf_counter() - start)
        run_repr = int(report.sampling["represented_events"])
        run_exec = int(report.sampling["executed_events"])
        if represented is None:
            represented, executed, cycles = run_repr, run_exec, report.cycles
        elif (run_repr, run_exec, report.cycles) != (represented, executed, cycles):
            raise AssertionError(
                "the accelerated reference run went nondeterministic: "
                f"{run_repr}/{run_exec} events, {report.cycles} cycles vs "
                f"{represented}/{executed}, {cycles} on an earlier sample"
            )
    assert represented is not None and cycles is not None
    return BenchMeasurement(
        benchmark=EFFECTIVE_BENCHMARK,
        events=represented,
        cycles=cycles,
        seconds=tuple(seconds),
        executed_events=executed,
        reference=effective_reference(),
    )


def history_entry(measurement: BenchMeasurement) -> dict[str, object]:
    """One ``BENCH_history.jsonl`` entry for a finished measurement."""
    entry = {
        "schema": HISTORY_SCHEMA,
        "benchmark": measurement.benchmark,
        "ts": round(time.time(), 3),
        "events": measurement.events,
        "cycles": measurement.cycles,
        "samples": measurement.samples,
        "seconds": [round(s, 4) for s in measurement.seconds],
        "median_seconds": round(measurement.median_seconds, 4),
        "events_per_sec": round(measurement.events_per_sec),
        "reference": (
            dict(measurement.reference)
            if measurement.reference is not None
            else {
                "workload": REFERENCE_WORKLOAD,
                "scale": REFERENCE_SCALE,
                "num_cus": REFERENCE_CUS,
                "policy": CACHE_RW.name,
            }
        ),
        "python": platform.python_version(),
        "host": platform.node(),
    }
    if measurement.executed_events is not None:
        entry["executed_events"] = measurement.executed_events
    return entry


def append_history(
    path: Path, measurement: BenchMeasurement, limit: Optional[int] = None
) -> dict[str, object]:
    """Append a measurement's entry to the history; returns the entry.

    ``limit`` optionally caps the file at the newest N entries afterwards
    (plain rewrite -- the history is a local artifact, not shared state).
    """
    entry = history_entry(measurement)
    append_jsonl(path, entry)
    if limit is not None and limit > 0:
        entries = read_jsonl(path)
        if len(entries) > limit:
            with open(path, "w", encoding="utf-8") as handle:
                for kept in entries[-limit:]:
                    handle.write(
                        json.dumps(kept, sort_keys=True, separators=(",", ":")) + "\n"
                    )
    return entry


def load_history(
    path: Path, benchmark: str = CORE_BENCHMARK, limit: Optional[int] = None
) -> list[float]:
    """The benchmark's historical events/sec values, oldest first.

    Entries whose ``events`` differ from the newest entry's are dropped:
    a model change resized the reference run, and throughput numbers from
    the old event stream are not comparable to the new one.
    """
    entries = [
        entry
        for entry in read_jsonl(path)
        if entry.get("schema") == HISTORY_SCHEMA
        and entry.get("benchmark") == benchmark
        and isinstance(entry.get("events_per_sec"), (int, float))
    ]
    if not entries:
        return []
    current_events = entries[-1].get("events")
    entries = [entry for entry in entries if entry.get("events") == current_events]
    if limit is not None and limit > 0:
        entries = entries[-limit:]
    return [float(entry["events_per_sec"]) for entry in entries]


def evaluate_measurement(
    events_per_sec: float,
    history: Sequence[float] = (),
    baseline: Optional[float] = None,
    max_regression: float = 0.25,
    mad_factor: float = 4.0,
    min_history: int = 5,
) -> RegressionVerdict:
    """Judge a measurement against the committed baseline and the history.

    Thin veneer over :func:`repro.stats.regression.check_regression`; the
    history passed in should normally *exclude* the measurement being
    judged (record first, check against what came before -- the CLI and
    the perf smoke both slice accordingly).
    """
    return check_regression(
        events_per_sec,
        committed_baseline=baseline,
        max_regression=max_regression,
        history=history,
        mad_factor=mad_factor,
        min_history=min_history,
    )
