"""Single instrumented runs: ``run`` and ``trace``.

* ``run``   -- simulate one workload under one policy (optionally on a
  registered multi-device topology) and print the report.
* ``trace`` -- record one fully instrumented run: a Chrome/Perfetto trace
  timeline (``--out``), optional windowed counter metrics, and host-side
  simulator profiling (always on; ``--telemetry-out``).

``trace`` is the one command that attaches the in-run observers (trace
recorder, custom metrics windows, profiler); the study commands attach
none.  ``--alerts`` (on ``run`` and ``trace``) runs the anomaly detectors
-- L2 hit-rate cliffs and per-tenant starvation under shared dispatch --
over the run and surfaces the findings in the report/summary; it samples
the default metrics windows when ``--metrics-interval`` picks none.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from repro.cli import add_policy_option, fail, system_config
from repro.experiments.render import render_kv_table
from repro.ioutil import atomic_write_json
from repro.topology.config import TOPOLOGY_NAMES
from repro.workloads.registry import WORKLOAD_NAMES

if TYPE_CHECKING:
    from repro.session import SimulationSession
    from repro.telemetry.config import TelemetryConfig

#: modules ``trace`` lists in its text output
TOP_MODULES = 8


def _telemetry_config(args: argparse.Namespace, traced: bool = False) -> TelemetryConfig | None:
    """The observers the flags request (``None``: a plain ``run``).

    ``traced`` (the ``trace`` command) attaches every in-run observer;
    ``--ledger`` and ``--alerts`` add the post-run ones.
    """
    if not (traced or args.ledger or args.alerts):
        return None
    from repro.telemetry.config import TelemetryConfig

    return TelemetryConfig(
        trace=traced,
        metrics_interval=getattr(args, "metrics_interval", None) or 0,
        profile=traced,
        ledger_path=args.ledger,
        alerts=args.alerts,
    )


def _print_alerts(report, command: str) -> None:
    """Surface fired anomaly detectors on stderr (stdout stays clean)."""
    if not report.alerts:
        print(f"[{command}] alerts: none fired", file=sys.stderr)
        return
    for alert in report.alerts:
        stream = f" stream={alert['stream']}" if "stream" in alert else ""
        print(
            f"[{command}] ALERT {alert['severity']}: {alert['kind']} "
            f"@cycle {alert['cycle']}{stream} -- {alert['message']}",
            file=sys.stderr,
        )


def _write_trace(path: str, session: SimulationSession) -> None:
    """Validate and atomically write the session's recorded trace.

    When the session also sampled windowed metrics, the windows ride along
    under ``otherData.metricsWindows`` (the trace-event format reserves
    ``otherData`` for free-form payload), so one artifact carries the full
    observability record of the run.
    """
    from repro.telemetry.trace import validate_trace

    recorder = session.recorder
    assert recorder is not None  # ``trace`` always records
    blob = recorder.to_dict()
    if session.sampler is not None:
        other = blob["otherData"]
        assert isinstance(other, dict)
        other["metricsWindows"] = [dict(window) for window in session.sampler.windows]
    validate_trace(blob)
    atomic_write_json(path, blob, indent=None)
    events = blob["traceEvents"]
    assert isinstance(events, list)
    print(
        f"[trace] wrote {len(events)} trace events to {path}"
        + (" (truncated)" if recorder.truncated else ""),
        file=sys.stderr,
    )
    if recorder.truncated:
        print(
            f"[trace] warning: the trace hit the {recorder.max_events}-event "
            "cap and later events were dropped; reduce --scale or trace a "
            "narrower run for a complete timeline",
            file=sys.stderr,
        )


def run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True, choices=list(WORKLOAD_NAMES))
    add_policy_option(parser, "--policy", required=True)
    parser.add_argument(
        "--topology", default=None, choices=list(TOPOLOGY_NAMES),
        help="simulate on a registered multi-device topology",
    )
    parser.add_argument(
        "--sampling", action="store_true",
        help="phase-sampled fast-forward: skip steady-state kernel repeats "
        "and extrapolate their counters (the report carries per-counter "
        "error estimates)",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="append this run's provenance entry to the JSONL run ledger",
    )
    parser.add_argument(
        "--alerts", action="store_true",
        help="run the anomaly detectors (hit-rate cliffs, tenant starvation) "
        "over the run and surface the findings (implies windowed metrics sampling)",
    )


def run_command(args: argparse.Namespace) -> int:
    from repro.accel.config import SamplingConfig
    from repro.session import SimulationSession
    from repro.spec import JobSpec
    from repro.topology.config import topology_by_name

    spec = JobSpec(
        workload=args.workload,
        policy=args.policy,
        scale=args.scale,
        config=system_config(args),
        topology=topology_by_name(args.topology) if args.topology else None,
        sampling=SamplingConfig() if args.sampling else None,
    )
    report = SimulationSession(spec, telemetry=_telemetry_config(args)).run()
    label = f"{args.workload} under {spec.policy.name}"
    if spec.topology is not None:
        label += f" on {spec.topology.label}"
    payload = report.as_dict()
    if report.metrics:
        # windowed time-series only exist when --alerts sampled them, so
        # plain runs keep the historical flat payload byte-for-byte
        payload["metrics"] = report.metrics
    if report.alerts:
        # same touched-gating: only --alerts runs can populate this
        payload["alerts"] = report.alerts
    if report.sampling:
        # only accelerated runs carry this block, so exact runs keep the
        # historical payload byte-for-byte
        payload["sampling"] = report.sampling
        if report.error_estimates:
            payload["max_error_estimate"] = max(report.error_estimates.values())
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        if report.metrics:
            payload["metrics"] = f"{len(report.metrics)} windows"
        if report.alerts:
            payload["alerts"] = f"{len(report.alerts)} fired"
        if report.sampling:
            skipped = report.sampling.get("skipped_fraction", 0.0)
            payload["sampling"] = f"{float(skipped):.0%} kernels skipped"
        print(render_kv_table(label, payload))
    if args.alerts:
        _print_alerts(report, "run")
    return 0


def trace_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.streams.config import MIX_NAMES

    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--workload", choices=list(WORKLOAD_NAMES), help="single workload to trace"
    )
    source.add_argument(
        "--mix", choices=list(MIX_NAMES), help="serving mix to trace (concurrent streams)"
    )
    add_policy_option(parser, "--policy", default="CacheRW", help="policy name (default: CacheRW)")
    parser.add_argument(
        "--topology", default=None, choices=list(TOPOLOGY_NAMES),
        help="trace on a registered multi-device topology",
    )
    parser.add_argument(
        "--out", default="trace.json", metavar="FILE",
        help="trace artifact path (default: trace.json; open in "
        "https://ui.perfetto.dev or chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-interval", type=int, default=None, metavar="CYCLES",
        help="also sample windowed counter time-series every CYCLES cycles "
        "(embedded in the trace artifact)",
    )
    parser.add_argument(
        "--telemetry-out", default=None, metavar="FILE",
        help="write the host-side profiling summary (events/sec, "
        "self time per source module) as JSON",
    )
    parser.add_argument("--json", action="store_true", help="emit the run summary as JSON")
    parser.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="append this run's provenance entry to the JSONL run ledger",
    )
    parser.add_argument(
        "--alerts", action="store_true",
        help="run the anomaly detectors over the traced run and surface "
        "the findings (alerts also land on the trace timeline)",
    )


def trace_command(args: argparse.Namespace) -> int:
    """Record one fully instrumented run and write its trace artifact.

    The session runs with every observer attached: the Chrome trace
    recorder (always), the windowed metrics sampler (with
    ``--metrics-interval``), and the host profiler (always -- the summary
    reports simulator throughput; the text output lists the modules with
    the most host self time, and ``--telemetry-out`` gets the full module
    table).  The trace is validated before it is written.
    """
    from repro.session import SimulationSession
    from repro.spec import JobSpec
    from repro.streams.config import mix_by_name
    from repro.topology.config import topology_by_name

    telemetry = _telemetry_config(args, traced=True)
    try:
        spec = JobSpec(
            workload=args.workload or "",
            policy=args.policy,
            scale=args.scale,
            config=system_config(args),
            topology=topology_by_name(args.topology) if args.topology else None,
            streams=mix_by_name(args.mix).scaled(args.scale) if args.mix else None,
        )
        session = SimulationSession(spec, telemetry=telemetry)
        report = session.run()
    except ValueError as exc:  # a run the simulator rejects up front
        return fail(str(exc))
    _write_trace(args.out, session)

    recorder, profiler = session.recorder, session.profiler
    assert recorder is not None and profiler is not None
    profile = profiler.summary()
    latency = session.stats.histogram_summary("gpu.mem_latency")
    summary: dict[str, object] = {
        "workload": report.workload,
        "policy": report.policy,
        "cycles": report.cycles,
        "trace_events": len(recorder.events),
        "trace_truncated": recorder.truncated,
        "kernel_spans": len(recorder.spans("kernel")),
        "wavefront_spans": len(recorder.spans("wavefront")),
        "metrics_windows": len(session.sampler.windows) if session.sampler else 0,
        "sim_events": profiler.events,
        "wall_seconds": round(profiler.wall_seconds, 6),
        "events_per_second": round(profiler.events_per_second, 1),
        "mem_latency_p50": latency["p50"],
        "mem_latency_p95": latency["p95"],
        "mem_latency_p99": latency["p99"],
    }
    if args.alerts:
        summary["alerts"] = len(report.alerts)
        _print_alerts(report, "trace")
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
    else:
        print(render_kv_table(f"Trace of {report.workload} under {report.policy}", summary))
        top = list(profile["modules"].items())[:TOP_MODULES]
        title = f"Host self time, top modules ({profile['accounted_share']:.1%} of wall)"
        rows = {name: f"{row['seconds']:8.3f} s  {row['share']:6.1%}" for name, row in top}
        print(render_kv_table(title, rows))
    if args.telemetry_out:
        blob = {"schema": 1, "command": "trace", "profiler": profile, "run": summary}
        atomic_write_json(args.telemetry_out, blob)
        print(f"[trace] wrote profiling telemetry to {args.telemetry_out}", file=sys.stderr)
    return 0
