"""Append-only JSONL provenance registry of simulation runs.

Every observed :class:`~repro.session.SimulationSession` run and every
cell a :class:`~repro.experiments.jobs.SweepExecutor` actually simulates
appends one JSON line to the ledger: the run's fingerprint (its
:class:`~repro.spec.JobSpec` store key) and inputs, the end-of-run
counters, wall time and events/sec, the telemetry that was attached, and
host/python provenance.  Unlike the result store -- a *cache*, keyed by inputs,
overwritten freely -- the ledger is a *history*: repeated runs of the
same cell each get their own entry, so drift between "the same" run last
week and today is visible (``repro-gpu-cache diff ledger:-1 ledger:-2``),
and the fleet's throughput trajectory accumulates instead of evaporating.

Appends go through :func:`repro.ioutil.append_jsonl` (single ``O_APPEND``
write + fsync), prunes through :func:`repro.ioutil.rewrite_jsonl`, reads
through the tolerant :func:`repro.ioutil.read_jsonl` (a torn tail from a
crashed writer costs one entry, never the file).
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.ioutil import append_jsonl, read_jsonl, rewrite_jsonl

__all__ = ["RunLedger", "default_ledger_path", "run_entry"]

#: ledger entry schema; bump when the entry shape changes incompatibly
LEDGER_SCHEMA = 1


def default_ledger_path() -> Path:
    """``$REPRO_LEDGER`` if set, else ``<conventional cache dir>/ledger.jsonl``.

    Sharing the cache directory keeps the provenance of a store's entries
    next to the store itself.
    """
    override = os.environ.get("REPRO_LEDGER")
    if override:
        return Path(override).expanduser()
    # imported here, not at module level: the experiments package imports
    # the session, which imports this package (import cycle guard)
    from repro.experiments.store import default_cache_dir

    return default_cache_dir() / "ledger.jsonl"


def run_entry(
    kind: str,
    fingerprint_hex: Optional[str],
    workload: str,
    policy: str,
    cycles: Optional[int] = None,
    counters: Optional[Mapping[str, int]] = None,
    wall_seconds: Optional[float] = None,
    events: Optional[int] = None,
    telemetry: Optional[Mapping[str, object]] = None,
    alerts: Optional[Sequence[Mapping[str, object]]] = None,
    source: Optional[str] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> dict[str, object]:
    """Assemble one ledger entry (the :meth:`RunLedger.record` payload).

    ``kind`` is ``"run"`` (a session run), ``"job"`` (one executor cell)
    or ``"sweep"`` (executor-level aggregate).  Optional fields are
    simply omitted so entries stay compact and greppable.
    """
    entry: dict[str, object] = {
        "kind": kind,
        "fingerprint": fingerprint_hex,
        "workload": workload,
        "policy": policy,
    }
    if cycles is not None:
        entry["cycles"] = int(cycles)
    if counters is not None:
        entry["counters"] = {str(name): int(value) for name, value in counters.items()}
    if wall_seconds is not None:
        entry["wall_seconds"] = round(float(wall_seconds), 6)
        if events is not None and wall_seconds > 0:
            entry["events_per_sec"] = round(events / wall_seconds)
    if events is not None:
        entry["events"] = int(events)
    if telemetry:
        entry["telemetry"] = dict(telemetry)
    if alerts:
        entry["alerts"] = [dict(alert) for alert in alerts]
    if source is not None:
        entry["source"] = source
    if extra:
        entry.update(extra)
    return entry


class RunLedger:
    """One append-only JSONL ledger file.

    Args:
        path: ledger file (created on first record); defaults to the
            conventional :func:`default_ledger_path`.
    """

    def __init__(self, path: Optional[str | os.PathLike[str]] = None) -> None:
        self.path = Path(path) if path is not None else default_ledger_path()

    # ------------------------------------------------------------------
    def record(self, entry: Mapping[str, object]) -> dict[str, object]:
        """Stamp provenance onto ``entry`` and append it durably.

        Returns the full entry as written (with schema, timestamp, and
        host/python provenance added).
        """
        stamped: dict[str, object] = {
            "schema": LEDGER_SCHEMA,
            "ts": round(time.time(), 3),
            "python": platform.python_version(),
            "host": platform.node(),
        }
        stamped.update(entry)
        append_jsonl(self.path, stamped)
        return stamped

    # ------------------------------------------------------------------
    def entries(self) -> list[dict]:
        """Every parseable entry of the current schema, oldest first."""
        return [
            entry
            for entry in read_jsonl(self.path)
            if entry.get("schema") == LEDGER_SCHEMA
        ]

    def tail(self, count: int) -> list[dict]:
        """The newest ``count`` entries, oldest of them first."""
        if count < 1:
            raise ValueError(f"tail count must be positive, got {count}")
        return self.entries()[-count:]

    def __len__(self) -> int:
        return len(self.entries())

    # ------------------------------------------------------------------
    def find(self, ref: str) -> Optional[dict]:
        """Resolve one entry by reference.

        Accepted forms:

        * an integer index into the entry list -- Python semantics, so
          ``-1`` is the newest entry, ``0`` the oldest;
        * a fingerprint hex prefix (at least 4 chars); the *newest*
          matching entry wins, matching how humans quote fingerprints.

        Returns ``None`` when nothing matches.
        """
        entries = self.entries()
        try:
            index = int(ref)
        except ValueError:
            pass
        else:
            try:
                return entries[index]
            except IndexError:
                return None
        if len(ref) < 4:
            return None  # too short to be a meaningful fingerprint prefix
        for entry in reversed(entries):
            fingerprint_hex = entry.get("fingerprint")
            if isinstance(fingerprint_hex, str) and fingerprint_hex.startswith(ref):
                return entry
        return None

    # ------------------------------------------------------------------
    def prune(
        self,
        keep: Optional[int] = None,
        max_age_days: Optional[float] = None,
    ) -> int:
        """Drop old entries; returns how many were removed.

        ``keep`` retains only the newest N entries; ``max_age_days`` drops
        entries whose timestamp is older than the cutoff.  Both may be
        combined (an entry must survive both to stay).  The survivors are
        rewritten by :func:`repro.ioutil.rewrite_jsonl`, the same
        temp-file + fsync + rename writer as every other artifact, so a
        crash mid-prune never loses the ledger.
        """
        if keep is None and max_age_days is None:
            raise ValueError("prune needs keep=N and/or max_age_days=D")
        if keep is not None and keep < 0:
            raise ValueError(f"keep must be non-negative, got {keep}")
        if max_age_days is not None and max_age_days < 0:
            raise ValueError(f"max_age_days must be non-negative, got {max_age_days}")
        entries = self.entries()
        survivors = entries
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
            survivors = [
                entry
                for entry in survivors
                if isinstance(entry.get("ts"), (int, float)) and entry["ts"] >= cutoff
            ]
        if keep is not None:
            survivors = survivors[len(survivors) - keep :] if keep else []
        removed = len(entries) - len(survivors)
        if removed == 0:
            return 0
        rewrite_jsonl(self.path, survivors)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLedger({str(self.path)!r})"
