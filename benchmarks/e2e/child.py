"""One benchmark sample: run one workload in this fresh interpreter.

Usage (normally spawned by ``run.py``, with ``src`` on ``PYTHONPATH``)::

    python benchmarks/e2e/child.py WORKLOAD RESULT.json [--store DIR]
        [--jobs N] [--profile OUT.prof]

The sample imports what its workload needs, builds the workload's inputs,
records the ``CLOCK_MONOTONIC`` time of that "inputs ready" mark (and of
its first and last statements, which bound interpreter start-up and
shutdown), runs the body through the program's public entry points only
(``SimulationSession``, ``simulate``, ``ExperimentRunner.sweep``,
``repro.cli.main``) and writes a JSON result: the mark, a digest of the
outputs, and the program's own counts.  Simulated caches start empty in
every workload; ``--store`` names the result-store directory of the two
sweeps (empty for ``sweep-cold``, filled for ``sweep-warm``).

With ``--profile`` a ``cProfile`` profiler is switched on before anything
else is imported, so the profile covers every ``repro`` import.
"""

import sys
import time

START = time.perf_counter()

if "--profile" in sys.argv:
    import cProfile

    _PROFILER = cProfile.Profile()
    _PROFILER.enable()
else:
    _PROFILER = None

import argparse
import contextlib
import hashlib
import io
import json

#: error-estimate keys whose maximum is the sampled mode's declared bound
ERROR_BOUND_KEYS = ("cycles", "dram.accesses", "l2.hits", "l2.accesses", "gpu.mem_requests")


def report_digest(items):
    """sha256 over (label, cycles, sorted counters) of each report, in order."""
    digest = hashlib.sha256()
    for label, cycles, counters in items:
        digest.update(json.dumps([label, cycles, sorted(counters.items())]).encode())
    return digest.hexdigest()


def sim_counts(reports, events):
    """The simulated counts the per-layer metrics report, summed over reports."""
    total = {}
    for report in reports:
        for name, value in report.counters.items():
            total[name] = total.get(name, 0) + value
    cycles = sum(report.cycles for report in reports)

    def get(name):
        return total.get(name, 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    links = [name for name in total if name.startswith("link.")]
    remote = get("topo.remote_requests")
    return {
        "events": events,
        "cycles": cycles,
        "l1.accesses": get("l1.accesses"),
        "l1.hit_rate": ratio(get("l1.hits"), get("l1.accesses")),
        "l1.stall_cycles": get("l1.stall_cycles"),
        "l2.accesses": get("l2.accesses"),
        "l2.hit_rate": ratio(get("l2.hits"), get("l2.accesses")),
        "l2.stall_cycles": get("l2.stall_cycles"),
        "l2.writebacks": get("l2.writebacks"),
        "mshr.coalesced": get("l1.mshr_coalesced") + get("l2.mshr_coalesced"),
        "dram.accesses": get("dram.accesses"),
        "dram.row_hit_rate": ratio(get("dram.row_hits"), get("dram.accesses")),
        "dram.queue_full_stalls": get("dram.queue_full_stalls"),
        "link.transfers": sum(total[n] for n in links if n.endswith(".transfers")),
        "link.contention_cycles": sum(
            total[n] for n in links if n.endswith(".contention_cycles")
        ),
        "remote_fraction": ratio(remote, remote + get("topo.local_requests")),
        "directory.lookups": get("directory.lookups"),
        "gpu.mem_requests": get("gpu.mem_requests"),
    }


def sessions(workloads, **session_args):
    """One exact ``SimulationSession`` per workload (``None``: the session's
    serving mix), 4 CUs, CacheRW."""
    from repro import SimulationSession, scaled_config

    config = scaled_config(4)

    def body(result):
        reports, events = [], 0
        for workload in workloads:
            session = SimulationSession(policy="CacheRW", config=config, **session_args)
            reports.append(session.run(workload))
            events += session.sim.queue.executed
        result["digest"] = report_digest(
            (report.workload, report.cycles, report.counters) for report in reports
        )
        result["sim"] = sim_counts(reports, events)

    return body


def exact(kernels):
    from repro import get_workload

    return sessions([get_workload(name, scale=scale) for name, scale in kernels])


def serve_numa():
    from repro import mix_by_name, topology_by_name

    return sessions(
        [None], topology=topology_by_name("dual-chiplet"), streams=mix_by_name("mha+fwlstm")
    )


def sweep_cold(store, jobs):
    from repro import policy_by_name, scaled_config
    from repro.experiments import ExperimentRunner

    runner = ExperimentRunner(
        scale=1.0, config=scaled_config(4), jobs=jobs, cache_dir=store
    )
    policies = [policy_by_name(name) for name in ("Uncached", "CacheRW", "CacheRW-CR")]
    names = ["CM", "SGEMM", "MHA", "FwFc"]

    def body(result):
        sweep = runner.sweep(policies=policies, workload_names=names)
        reports = [sweep.reports[key] for key in sorted(sweep.reports)]
        result["digest"] = report_digest(
            (f"{r.workload}/{r.policy}", r.cycles, r.counters) for r in reports
        )
        result["sim"] = sim_counts(reports, 0)
        result["executor"] = runner.executor.stats.telemetry(workers=jobs)
        result["failures"] = len(runner.executor.stats.failures)

    return body


def sweep_warm(store, jobs):
    import repro.cli

    telemetry = f"{store}.telemetry.json"
    argv = ["--scale", "0.2", "--cus", "2", "sweep-all", "--jobs", str(jobs),
            "--cache-dir", store, "--telemetry-out", telemetry]

    def body(result):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = repro.cli.main(argv)
        if code != 0:
            raise SystemExit(f"sweep-all exited with {code}")
        result["digest"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        with open(telemetry, encoding="utf-8") as handle:
            result["executor"] = json.load(handle)["executor"]
        result["failures"] = result["executor"]["runs_failed"]

    return body


def accel_sampled():
    from repro import (
        SamplingConfig,
        ShardConfig,
        StreamConfig,
        scaled_config,
        simulate,
    )

    streams = tuple(
        StreamConfig(workload="FwBwLSTM", scale=16.0, cu_share="partitioned")
        for _ in range(2)
    )
    sampling = SamplingConfig(warmup_instances=1, measure_instances=1)
    shards = ShardConfig(num_shards=2, axis="streams")
    config = scaled_config(8)

    def body(result):
        report = simulate(
            policy="CacheRW", config=config, streams=streams,
            sampling=sampling, shards=shards,
        )
        counters = {k: v for k, v in report.counters.items() if not k.startswith("shard.")}
        represented = int(report.sampling["represented_events"])
        executed = int(report.sampling["executed_events"])
        result["digest"] = report_digest(
            [(report.workload, [report.cycles, represented, executed], counters)]
        )
        result["sim"] = sim_counts([report], represented)
        result["accel"] = {
            "skipped_fraction": float(report.sampling["skipped_fraction"]),
            "amplification": represented / executed,
            "executed_events": executed,
        }
        result["error_bound"] = max(
            report.error_estimates.get(key, 0.0) for key in ERROR_BOUND_KEYS
        )

    return body


WORKLOADS = {
    "exact-reuse": lambda args: exact([("CM", 1.0), ("MHA", 1.0), ("SGEMM", 1.0)]),
    "exact-stream": lambda args: exact([("FwAct", 0.5), ("BwAct", 0.5)]),
    "sweep-cold": lambda args: sweep_cold(args.store, args.jobs),
    "sweep-warm": lambda args: sweep_warm(args.store, args.jobs),
    "accel-sampled": lambda args: accel_sampled(),
    "serve-numa": lambda args: serve_numa(),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("result", help="path the JSON result is written to")
    parser.add_argument("--store", help="result-store directory of the sweeps")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--profile", help="write a cProfile .prof file here")
    args = parser.parse_args()
    body = WORKLOADS[args.workload](args)
    result = {"start": START, "mark": time.perf_counter(), "failures": 0, "error_bound": 0.0}
    body(result)
    if _PROFILER is not None:
        _PROFILER.disable()
        _PROFILER.dump_stats(args.profile)
    with open(args.result, "w", encoding="utf-8") as handle:
        result["end"] = time.perf_counter()
        json.dump(result, handle)


if __name__ == "__main__":
    main()
