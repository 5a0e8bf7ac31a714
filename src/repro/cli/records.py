"""Stored results and run records: ``cache``, ``ledger`` and ``diff``.

* ``cache``  -- persistent result-store lifecycle: ``stats``, ``clear``,
  ``prune --max-age-days N``.
* ``ledger`` -- cross-run provenance registry: ``list`` recent runs,
  ``show`` one entry, ``prune`` old ones.  Runs and sweeps append to it via
  ``--ledger`` (or ``$REPRO_LEDGER``).
* ``diff``   -- counter-for-counter comparison of two runs (report files,
  store fingerprints or ledger references); ``--fail-on-drift`` for CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cli import add_executor_options, fail, store_dir
from repro.experiments.render import render_kv_table

if TYPE_CHECKING:
    from repro.obs.ledger import RunLedger


def cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("action", choices=["stats", "clear", "prune"])
    parser.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="prune: delete entries older than this many days (required)",
    )
    parser.add_argument("--json", action="store_true", help="emit the result as JSON")
    add_executor_options(parser, "--cache-dir")


def cache_command(args: argparse.Namespace) -> int:
    """Result-store lifecycle: occupancy stats, full clear, age-based prune."""
    from repro.experiments.store import default_cache_dir

    cache_dir = args.cache_dir if args.cache_dir is not None else str(default_cache_dir())
    if not Path(cache_dir).expanduser().is_dir():
        # the lifecycle commands inspect an existing store; creating a
        # directory as a side effect would make a typo look like a
        # healthy empty store
        return fail(f"no result store at {cache_dir}")
    if args.action == "prune":
        if args.max_age_days is None:
            return fail("cache prune requires --max-age-days")
        if args.max_age_days < 0:
            return fail("--max-age-days must be non-negative")
    from repro.experiments.store import ResultStore
    from repro.obs.ledger import RunLedger

    store = ResultStore(cache_dir)
    if args.action == "stats":
        payload: dict[str, object] = dict(store.stats())
        # when a run ledger lives alongside the store, fold its fleet-level
        # view in: how many runs/jobs it has seen, and the store hit-rate
        # and worker utilization of the most recent sweep aggregate --
        # visible without hunting for a --telemetry-out artifact
        ledger_file = Path(cache_dir).expanduser() / "ledger.jsonl"
        if ledger_file.is_file():
            entries = RunLedger(ledger_file).entries()
            payload["ledger_entries"] = len(entries)
            kinds = Counter(str(entry.get("kind", "?")) for entry in entries)
            for kind in sorted(kinds):
                payload[f"ledger_{kind}_entries"] = kinds[kind]
            last_sweep = next((e for e in reversed(entries) if e.get("kind") == "sweep"), None)
            if last_sweep is not None:
                telemetry = last_sweep.get("telemetry") or {}
                keys = ("runs_simulated", "runs_loaded", "store_hit_rate", "worker_utilization")
                for key in keys:
                    if key in telemetry:
                        payload[f"last_sweep_{key}"] = telemetry[key]
    elif args.action == "clear":
        payload = {"root": str(store.root), "removed": store.clear()}
    else:  # prune
        removed = store.prune(args.max_age_days)
        payload = {"root": str(store.root), "max_age_days": args.max_age_days, "removed": removed}
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(render_kv_table(f"Result store {args.action}", payload))
    return 0


def _ledger_for(args: argparse.Namespace) -> RunLedger:
    """The ledger the --ledger flag names (or the conventional default)."""
    from repro.obs.ledger import RunLedger

    return RunLedger(args.ledger) if args.ledger else RunLedger()


def _ledger_option(parser: argparse.ArgumentParser) -> None:
    """``--ledger`` for the commands that read a ledger."""
    parser.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="ledger file (default: $REPRO_LEDGER or <cache dir>/ledger.jsonl)",
    )


def _format_ts(ts: object) -> str:
    """Ledger timestamp as local wall-clock minutes (or a dash ruler)."""
    if not isinstance(ts, (int, float)):
        return "-" * 16
    return time.strftime("%Y-%m-%d %H:%M", time.localtime(ts))


def ledger_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("action", choices=["list", "show", "prune"])
    parser.add_argument(
        "ref", nargs="?", default="-1",
        help="show: entry reference -- an index (-1 is the newest, 0 the "
        "oldest) or a fingerprint hex prefix (default: -1)",
    )
    _ledger_option(parser)
    parser.add_argument(
        "--count", type=int, default=10, metavar="N",
        help="list: how many recent entries to show (default: 10)",
    )
    parser.add_argument(
        "--keep", type=int, default=None, metavar="N",
        help="prune: retain only the newest N entries",
    )
    parser.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="prune: drop entries older than this many days",
    )
    parser.add_argument("--json", action="store_true", help="emit the result as JSON")


def ledger_command(args: argparse.Namespace) -> int:
    """Inspect or prune the cross-run provenance ledger."""
    ledger = _ledger_for(args)
    if args.action == "list":
        if args.count < 1:
            return fail(f"--count must be at least 1, got {args.count}")
        entries = ledger.entries()
        shown = entries[-args.count :]
        if args.json:
            blob = {"schema": 1, "path": str(ledger.path), "total": len(entries), "entries": shown}
            print(json.dumps(blob, indent=1, sort_keys=True))
            return 0
        if not entries:
            print(f"ledger {ledger.path}: empty")
            return 0
        print(f"ledger {ledger.path}: {len(entries)} entries")
        first_index = len(entries) - len(shown)
        for offset, entry in enumerate(shown):
            fingerprint_hex = entry.get("fingerprint")
            prefix = fingerprint_hex[:12] if isinstance(fingerprint_hex, str) else "-"
            cell = f"{entry.get('workload', '?')}/{entry.get('policy', '?')}"
            line = (
                f"  [{first_index + offset}] {_format_ts(entry.get('ts'))}  "
                f"{str(entry.get('kind', '?')):5s} {cell:24s} fp={prefix:12s}"
            )
            if entry.get("cycles") is not None:
                line += f" cycles={entry['cycles']}"
            if entry.get("events_per_sec") is not None:
                line += f" ev/s={entry['events_per_sec']}"
            alerts = entry.get("alerts")
            if alerts:
                line += f" alerts={len(alerts)}"
            print(line)
        return 0
    if args.action == "show":
        entry = ledger.find(args.ref)
        if entry is None:
            return fail(f"no ledger entry matches {args.ref!r} in {ledger.path}")
        print(json.dumps(entry, indent=1, sort_keys=True))
        return 0
    # prune
    if args.keep is None and args.max_age_days is None:
        return fail("ledger prune needs --keep N and/or --max-age-days D")
    try:
        removed = ledger.prune(keep=args.keep, max_age_days=args.max_age_days)
    except ValueError as exc:
        return fail(str(exc))
    payload = {"path": str(ledger.path), "removed": removed, "remaining": len(ledger)}
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(render_kv_table("Ledger prune", payload))
    return 0


def diff_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "ref_a", metavar="A",
        help="run reference: a report JSON file, a store fingerprint "
        "(unique prefix), or a ledger index/fingerprint",
    )
    parser.add_argument("ref_b", metavar="B", help="second run reference (same forms)")
    parser.add_argument(
        "--threshold", type=float, default=0.0, metavar="FRAC",
        help="only list counters whose relative change is at least FRAC "
        "(default: 0, list every changed counter)",
    )
    parser.add_argument(
        "--fail-on-drift", action="store_true",
        help="exit 1 unless the runs are counter-for-counter identical (CI gate)",
    )
    parser.add_argument("--json", action="store_true", help="emit the diff as JSON")
    add_executor_options(parser, "--cache-dir", "--no-cache")
    _ledger_option(parser)


def diff_command(args: argparse.Namespace) -> int:
    """Counter-for-counter comparison of two runs.

    Each operand may be a report JSON file (``run --json`` output is
    rejected with guidance -- it lacks raw counters), a result-store
    fingerprint prefix, or a ledger index/fingerprint.  Two runs of the
    same fingerprint diffing to zero drift is the determinism contract
    made checkable (``--fail-on-drift`` turns it into a CI gate).
    """
    if args.threshold < 0:
        return fail(f"--threshold must be non-negative, got {args.threshold}")
    from repro.experiments.store import ResultStore
    from repro.obs.diff import diff_reports, render_diff_table, resolve_report

    store = None
    cache_dir = store_dir(args)
    if cache_dir is not None and Path(cache_dir).expanduser().is_dir():
        store = ResultStore(cache_dir)
    ledger = _ledger_for(args)
    try:
        report_a, label_a = resolve_report(args.ref_a, store=store, ledger=ledger)
        report_b, label_b = resolve_report(args.ref_b, store=store, ledger=ledger)
    except ValueError as exc:
        return fail(str(exc))
    diff = diff_reports(
        report_a, report_b, threshold=args.threshold, a_label=label_a, b_label=label_b
    )
    if args.json:
        print(json.dumps(diff, indent=1, sort_keys=True))
    else:
        print(render_diff_table(diff))
    if args.fail_on_drift and not diff["identical"]:
        print("[diff] drift detected (--fail-on-drift)", file=sys.stderr)
        return 1
    return 0
