"""End-to-end benchmark of the simulator, with per-layer host time.

Every sample is one fresh interpreter (``child.py``) running one workload
through the program's public entry points; the harness times it from
spawn to exit, reads its "inputs ready" mark and its resource usage, and
checks its outputs against the digests in ``reference.json``.

A timing is normalised as ``raw * C_ref / c``.  While the sample runs, a
harness thread times a fixed pure-stdlib probe loop every 20 ms on the
sample's own CPU, in thread CPU time; ``c`` is the mean of those probes
and ``C_ref`` the median ``c`` of the recording run.  The host this was
built on switches each CPU between a fast and a ~1.6x slower state within
seconds, so a probe taken only before and after a sample misses changes
during it.  Raw times and ``c`` are kept as diagnostics.

Usage, from the repository root::

    python benchmarks/e2e/run.py [--seed N]        # every workload, table + out/results.json
    python benchmarks/e2e/run.py --record          # the same, re-recording reference.json
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py --compare PARENT.json CHANGE.json

The single-workload form prints one JSON object as its last line: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, the
``per_layer`` metrics (from ``cProfile`` runs of the sample) with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import pstats
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

#: a sample that runs longer than this is killed and counted as failed
TIMEOUT_S = 300.0
#: fewest timed samples one single-workload run takes, whatever --seconds says
MIN_SAMPLES = 3
#: iterations of one calibration probe (~1 ms of CPU on the recording host)
PROBE_ROUNDS = 1500
#: seconds between probes while a sample runs
PROBE_INTERVAL_S = 0.02
#: worker processes a sweep sample uses; the traced sweep-cold runs serially
#: so that the worker-side simulations are inside the profile
JOBS = 2
TRACE_JOBS = {"sweep-cold": 1}
#: workloads whose samples run in one process: pinned to one CPU, which the
#: probe shares, because this host's speed changes per CPU
SINGLE_PROCESS = {"exact-reuse", "exact-stream", "sweep-warm", "serve-numa"}


def calibrate() -> float:
    """Thread CPU seconds of one fixed pure-stdlib loop (heap, dict, arithmetic).

    CPU time, not wall time: the guest scheduler running the sample between
    probes does not count, a slow host does.
    """
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    start = time.thread_time()
    for i in range(PROBE_ROUNDS):
        push(heap, ((i * 7919) % 1009, i))
        key = i & 1023
        table[key] = table.get(key, 0) + 1
        if len(heap) > 64:
            pop(heap)
    return time.thread_time() - start


class Probe:
    """Runs :func:`calibrate` every ``PROBE_INTERVAL_S`` while a sample runs,
    taking turns over the sample's CPUs; ``c`` is the mean probe time."""

    def __init__(self, cpus: list[int]) -> None:
        self.cpus = cpus
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        turn = 0
        while True:
            # affinity of the calling thread only
            os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})
            turn += 1
            self.durations.append(calibrate())
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    @property
    def c(self) -> float:
        return statistics.fmean(self.durations)


def normalise(raw: float, c: float, c_ref: float) -> float:
    """A host time expressed on the recording host's calibration scale."""
    return raw * c_ref / c


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(values) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": list(values)}


# ---------------------------------------------------------------------------
# one sample
# ---------------------------------------------------------------------------
@dataclass
class Sample:
    """One spawned interpreter, timed by the harness."""

    workload: str
    wall: float = 0.0
    setup: float = 0.0
    #: interpreter start-up and shutdown: spawn to the child's first
    #: statement, plus its last write to exit
    interpreter: float = 0.0
    peak_rss_mb: float = 0.0
    #: mean probe time while the sample ran
    c: float = 0.0
    result: dict = field(default_factory=dict)
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop_group(pgid: int, deadline_s: float = 10.0) -> None:
    """Kill whatever the sample left in its process group and wait for it."""
    stop = time.monotonic() + deadline_s
    while time.monotonic() < stop:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    print(f"warning: process group {pgid} still present after SIGKILL", file=sys.stderr)


def spawn(workload: str, tag: str, jobs: int = JOBS, profile: Path | None = None) -> Sample:
    """Run one sample in a fresh interpreter and measure it."""
    samples_dir = OUT / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)
    result_path = samples_dir / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), workload, str(result_path), "--jobs", str(jobs)]
    store = None
    if workload == "sweep-cold":
        store = OUT / "stores" / tag
        shutil.rmtree(store, ignore_errors=True)
        store.mkdir(parents=True)
    elif workload == "sweep-warm":
        store = OUT / "warm-store"
    if store is not None:
        argv += ["--store", str(store)]
    if profile is not None:
        argv += ["--profile", str(profile)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    sample = Sample(workload)
    timed_out = threading.Event()

    def on_timeout(pgid: int) -> None:
        timed_out.set()
        _kill_group(pgid)

    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[:1] if workload in SINGLE_PROCESS else sorted(allowed)
    log_path = samples_dir / f"{tag}.log"
    with open(log_path, "wb") as log:
        os.sched_setaffinity(0, cpus)  # inherited by the child
        try:
            start = time.perf_counter()
            pid = os.posix_spawn(
                sys.executable,
                argv,
                env,
                file_actions=[
                    (os.POSIX_SPAWN_DUP2, log.fileno(), 1),
                    (os.POSIX_SPAWN_DUP2, log.fileno(), 2),
                ],
                setsid=True,
            )
        finally:
            os.sched_setaffinity(0, allowed)
        timer = threading.Timer(TIMEOUT_S, on_timeout, (pid,))
        timer.start()
        try:
            with Probe(cpus) as probe:
                _pid, status, usage = os.wait4(pid, 0)
                end = time.perf_counter()
        finally:
            timer.cancel()
    _stop_group(pid)
    sample.c = probe.c
    if workload == "sweep-cold":
        shutil.rmtree(store, ignore_errors=True)
    sample.wall = end - start
    sample.peak_rss_mb = usage.ru_maxrss / 1024.0
    code = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        sample.error = f"timed out after {TIMEOUT_S:.0f} s"
    elif code != 0:
        sample.error = f"exit code {code}; see {log_path}"
    else:
        try:
            sample.result = json.loads(result_path.read_text(encoding="utf-8"))
            sample.setup = sample.result["mark"] - start
            sample.interpreter = (sample.result["start"] - start) + (end - sample.result["end"])
        except (OSError, ValueError, KeyError) as exc:
            sample.error = f"unreadable result: {exc!r}"
    result_path.unlink(missing_ok=True)
    if sample.ok:  # a failed sample keeps its output for inspection
        log_path.unlink()
    return sample


def check(sample: Sample, expected: dict | None, warmup: bool = False) -> None:
    """Mark the sample failed when its outputs differ from the expected ones.

    ``expected`` is the workload's entry in ``reference.json``; ``None``
    while recording, when only the program's own failure reports count.
    A warm-up sample may fill the warm store; any later one must not.
    """
    if not sample.ok:
        return
    result = sample.result
    if result.get("failures"):
        sample.error = f"{result['failures']} failed job(s) reported"
    elif sample.workload == "sweep-warm" and not warmup and result["executor"]["runs_simulated"]:
        sample.error = "warm sweep simulated cells: the store was not warm"
    elif expected is not None and result["digest"] != expected["digest"]:
        sample.error = f"output digest {result['digest'][:12]} != {expected['digest'][:12]}"
    elif expected is not None and result["error_bound"] > expected["error_bound"]:
        sample.error = (
            f"declared error bound rose: {result['error_bound']} > {expected['error_bound']}"
        )


class Sampler:
    """Spawns numbered samples and checks them against the reference."""

    def __init__(self, reference: dict | None) -> None:
        #: None while recording: only the program's own failure reports count
        self.reference = reference
        self.count = 0
        self.probe_means: list[float] = []

    @property
    def c_ref(self) -> float:
        """``C_ref`` from the reference, or this run's own median while recording."""
        if self.reference is None:
            return statistics.median(self.probe_means)
        return self.reference["c_ref"]

    def run(self, workload: str, jobs: int = JOBS, profile: Path | None = None,
            warmup: bool = False) -> Sample:
        self.count += 1
        sample = spawn(workload, f"{os.getpid()}-{self.count}", jobs, profile)
        self.probe_means.append(sample.c)
        expected = None if self.reference is None else self.reference["workloads"][workload]
        check(sample, expected, warmup)
        return sample


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def e2e_values(sample: Sample, c_ref: float) -> dict[str, float]:
    """The end-to-end metrics of one sample."""
    return {
        "wall_s": normalise(sample.wall, sample.c, c_ref),
        "setup_s": normalise(sample.setup, sample.c, c_ref),
        "peak_rss_mb": sample.peak_rss_mb,
    }


def program_counts(sample: Sample, c_ref: float) -> dict[str, float]:
    """sim.*, executor.* and accel.* metrics the program reported."""
    result = sample.result
    values = {f"sim.{name}": value for name, value in result.get("sim", {}).items()}
    executor = result.get("executor")
    if executor is not None:
        for name in ("runs_simulated", "runs_loaded", "store_hit_rate",
                     "worker_utilization", "retry_attempts", "runs_failed"):
            values[f"executor.{name}"] = executor[name]
        idle = executor["batch_seconds"] * executor["workers"] - executor["job_seconds"]
        values["executor.worker_overhead_s"] = normalise(idle, sample.c, c_ref)
    for name, value in result.get("accel", {}).items():
        values[f"accel.{name}"] = value
    values["accel.error_bound"] = result["error_bound"]
    return values


def layer_values(traced: Sample, untraced: Sample, profile: Path, c_ref: float) -> dict:
    """Per-layer metrics from one traced sample and its untraced twin."""
    stats = pstats.Stats(str(profile)).stats
    attributed = layers.attribute(stats, traced.wall, traced.interpreter)
    values = {
        f"layer.{name}.self_s": normalise(seconds, traced.c, c_ref)
        for name, seconds in attributed["layers"].items()
    }
    values["layer.accounted_share"] = attributed["accounted_share"]
    values["trace_overhead"] = (traced.wall / traced.c) / (untraced.wall / untraced.c)
    for name, seconds in attributed["phases"].items():
        values[f"phase.{name}_s"] = normalise(seconds, traced.c, c_ref)
    for name, calls in attributed["calls"].items():
        values[f"calls.{name}"] = calls
    return values


def traced_round(sampler: Sampler, workload: str) -> tuple[list[Sample], dict]:
    """Untraced sample(s) then one traced sample; returns samples and metrics."""
    untraced = sampler.run(workload)
    samples = [untraced]
    values = program_counts(untraced, sampler.c_ref) if untraced.ok else {}
    jobs = TRACE_JOBS.get(workload, JOBS)
    if jobs != JOBS:
        untraced = sampler.run(workload, jobs=jobs)
        samples.append(untraced)
    layers_dir = OUT / "layers"
    layers_dir.mkdir(parents=True, exist_ok=True)
    profile = layers_dir / f"{workload}.prof"
    traced = sampler.run(workload, jobs=jobs, profile=profile)
    samples.append(traced)
    if all(sample.ok for sample in samples):
        values.update(layer_values(traced, untraced, profile, sampler.c_ref))
    return samples, values


def medians(rows: list[dict]) -> dict[str, float]:
    """Per-key median over rows (a key missing from a row counts as 0)."""
    keys = dict.fromkeys(key for row in rows for key in row)
    return {key: statistics.median(row.get(key, 0) for row in rows) for key in keys}


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------
def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def prepare(sampler: Sampler, workloads: list[str]) -> list[Sample]:
    """Untimed samples that fill the warm store of the workloads needing one."""
    return [sampler.run(name, warmup=True) for name in workloads if name == "sweep-warm"]


def single_run(args, benchmark: dict, reference: dict) -> int:
    """One workload for ``--seconds``; prints the one-line JSON result last."""
    if args.workload not in reference["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sampler = Sampler(reference)
    samples = prepare(sampler, [args.workload])
    rows = []
    min_rounds = 1 if args.trace else MIN_SAMPLES
    start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        if args.trace:
            batch, values = traced_round(sampler, args.workload)
            samples += batch
            rows.append(values)
        else:
            sample = sampler.run(args.workload)
            samples.append(sample)
            if sample.ok:
                rows.append(e2e_values(sample, sampler.c_ref))
        elapsed = time.perf_counter() - start
        # stop before a round that would end past --seconds
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    failed = [sample for sample in samples if not sample.ok]
    for sample in failed:
        print(f"failed sample of {sample.workload}: {sample.error}", file=sys.stderr)
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    values = medians(rows) if rows else {}
    metrics = {
        spec["name"]: {"value": values.get(spec["name"], 0), "unit": spec["unit"]}
        for spec in wanted
    }
    for name, metric in metrics.items():
        print(f"{args.workload:14s} {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failed and bool(rows),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def full_run(args, benchmark: dict, reference: dict | None) -> int:
    """Every workload, interleaved, then one traced round each."""
    names = [workload["name"] for workload in benchmark["workloads"]]
    counts = (reference or load_json(REFERENCE))["workloads"]
    rng = random.Random(args.seed)
    sampler = Sampler(reference)
    timed: dict[str, list[Sample]] = {name: [] for name in names}
    attempts = {name: [] for name in names}
    for sample in prepare(sampler, names):
        attempts[sample.workload].append(sample)
    for round_index in range(max(counts[name]["samples"] for name in names)):
        order = [name for name in names if round_index < counts[name]["samples"]]
        rng.shuffle(order)
        for name in order:
            sample = sampler.run(name)
            print(f"  {name:14s} wall {sample.wall:7.3f} s  c {sample.c * 1e3:6.2f} ms"
                  f"  {'ok' if sample.ok else sample.error}", file=sys.stderr)
            timed[name].append(sample)
            attempts[name].append(sample)
    traced = {}
    for name in names:
        batch, traced[name] = traced_round(sampler, name)
        attempts[name] += batch
    c_ref = sampler.c_ref
    results = {"c_ref": c_ref, "seed": args.seed, "workloads": {}}
    for name in names:
        ok = [sample for sample in timed[name] if sample.ok]
        failed = [sample for sample in attempts[name] if not sample.ok]
        entry = {
            "attempted": len(attempts[name]),
            "failed": len(failed),
            "failed_frac": len(failed) / len(attempts[name]),
            "errors": [sample.error for sample in failed],
            "metrics": {},
            "per_layer": traced[name],
            "raw_wall_s": [sample.wall for sample in ok],
            "probe_c_s": [sample.c for sample in ok],
        }
        if ok:
            rows = [e2e_values(sample, c_ref) for sample in ok]
            entry["metrics"] = {key: summary([row[key] for row in rows]) for key in rows[0]}
            events = ok[0].result.get("sim", {}).get("events", 0)
            if events:
                entry["events_per_s"] = events / entry["metrics"]["wall_s"]["median"]
        results["workloads"][name] = entry
        (OUT / "layers").mkdir(parents=True, exist_ok=True)
        with open(OUT / "layers" / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(traced[name], handle, indent=1, sort_keys=True)
    with open(OUT / "results.json", "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    if args.record:
        record(results, timed, c_ref)
    print_table(benchmark, results)
    print(f"results: {OUT / 'results.json'}")
    return 1 if any(entry["failed"] for entry in results["workloads"].values()) else 0


def record(results: dict, timed: dict[str, list[Sample]], c_ref: float) -> None:
    """Write this run's digests, error bounds and calibration as the reference."""
    reference = load_json(REFERENCE)
    reference["c_ref"] = c_ref
    for name, samples in timed.items():
        digests = {sample.result.get("digest") for sample in samples if sample.ok}
        if len(digests) != 1 or results["workloads"][name]["failed"]:
            raise SystemExit(f"cannot record {name}: digests {digests}, failures "
                             f"{results['workloads'][name]['errors']}")
        entry = reference["workloads"][name]
        entry["digest"] = digests.pop()
        entry["error_bound"] = samples[0].result["error_bound"]
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print(f"recorded {REFERENCE}")


def print_table(benchmark: dict, results: dict) -> None:
    for spec in benchmark["end_to_end"]:
        print(f"\n{spec['name']} ({spec['unit']}, {spec['better']} is better, "
              f"bound {spec['bound']:.0%}): median [q1, q3] n")
        for name, entry in results["workloads"].items():
            stat = entry["metrics"].get(spec["name"])
            if stat:
                print(f"  {name:14s} {stat['median']:10.4f} [{stat['q1']:.4f}, "
                      f"{stat['q3']:.4f}] n={stat['n']}")
    print("\nfailed / attempted, events/s, traced accounted share and overhead:")
    for name, entry in results["workloads"].items():
        layer = entry["per_layer"]
        print(f"  {name:14s} {entry['failed']}/{entry['attempted']}  "
              f"{entry.get('events_per_s', 0):10.0f} ev/s  "
              f"accounted {layer.get('layer.accounted_share', 0):.3f}  "
              f"overhead {layer.get('trace_overhead', 0):.2f}x")
    print("\nper-layer metrics (traced round):")
    print(f"  {'':43s} " + "  ".join(f"{name[:10]:>10s}" for name in results["workloads"]))
    for spec in benchmark["per_layer"]:
        row = "  ".join(
            f"{entry['per_layer'].get(spec['name'], 0):10.4g}"
            for entry in results["workloads"].values()
        )
        print(f"  {spec['name']:34s} {spec['unit']:8s} {row}")


def verdict(spec: dict, parent: dict, change: dict) -> str:
    """``worse``, ``no-worse`` or ``unresolved`` for one metric of one workload."""
    sign = 1 if spec["better"] == "lower" else -1
    base = parent["median"]
    if sign * (change["median"] - base) > spec["bound"] * abs(base):
        return "worse"
    spread = (parent["q3"] - parent["q1"]) / abs(base) if base else 0.0
    if spread > spec["bound"]:
        beats = (max(change["values"]) < min(parent["values"]) if sign > 0
                 else min(change["values"]) > max(parent["values"]))
        return "no-worse" if beats else "unresolved"
    return "no-worse"


def compare(paths: list[str], benchmark: dict) -> int:
    parent, change = (load_json(Path(path)) for path in paths)
    worse = False
    print(f"{'workload':14s} {'metric':12s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s}  verdict")
    for name, before in parent["workloads"].items():
        after = change["workloads"].get(name)
        if after is None:
            print(f"{name:14s} missing from {paths[1]}: worse")
            worse = True
            continue
        if after["failed_frac"] > before["failed_frac"]:
            print(f"{name:14s} failed_frac {before['failed_frac']:.3f} -> "
                  f"{after['failed_frac']:.3f}: worse")
            worse = True
        for spec in benchmark["end_to_end"]:
            p, c = before["metrics"].get(spec["name"]), after["metrics"].get(spec["name"])
            if p is None or c is None:
                continue
            result = verdict(spec, p, c)
            worse |= result == "worse"
            print(f"{name:14s} {spec['name']:12s} "
                  f"{p['median']:12.4f} [{p['q1']:.4f}, {p['q3']:.4f}] "
                  f"{c['median']:12.4f} [{c['q1']:.4f}, {c['q3']:.4f}]  {result}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload, for --seconds")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the samples; the inputs are fixed registry workloads")
    parser.add_argument("--seconds", type=float,
                        help="measuring time of a single-workload run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record reference.json (digests, error bounds, C_ref)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.record and args.workload:
        parser.error("--record re-records every workload; drop --workload")
    benchmark = load_json(ROOT / "BENCHMARK.json")
    if args.compare:
        return compare(args.compare, benchmark)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    args.seconds = args.seconds or benchmark["run_seconds"]
    reference = None if args.record else load_json(REFERENCE)
    OUT.mkdir(exist_ok=True)
    if args.workload:
        return single_run(args, benchmark, reference)
    return full_run(args, benchmark, reference)


if __name__ == "__main__":
    sys.exit(main())
