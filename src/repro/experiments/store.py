"""Persistent on-disk store for simulation results.

Simulating the paper's full 17-workload x 6-policy grid is by far the most
expensive thing this repository does, and the CLI, the benchmark harness and
the examples all need (subsets of) the same grid.  :class:`ResultStore`
caches each finished :class:`~repro.stats.report.RunReport` as a small JSON
blob keyed by a content hash of the *inputs* of the run (workload, scale,
policy, system configuration -- see
:meth:`repro.spec.JobSpec.fingerprint`), so any process that
asks for the same cell again gets it back without simulating.

Layout: one ``<key>.json`` file per result under the store root, written
atomically (temp file + ``os.replace``) so concurrent workers and readers
never observe a torn blob.  Corrupt or schema-incompatible blobs are
treated as misses, never as errors: the store is a cache, and the worst
outcome of losing an entry is re-simulating it.  A *corrupt* entry (the
file exists but cannot be parsed -- e.g. truncated by a full disk or a
killed process) additionally emits a :class:`RuntimeWarning` naming the
file, so silent re-simulation never masks a sick cache directory; an entry
from a different schema/code version is silently stale, not corrupt.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path
from typing import Iterator, Mapping, Optional

from repro.fingerprint import SCHEMA_VERSION
from repro.ioutil import atomic_write_json
from repro.stats.report import RunReport

__all__ = ["ResultStore", "default_cache_dir"]


def default_cache_dir() -> Path:
    """The conventional store location: ``$REPRO_CACHE_DIR`` if set, else
    ``$XDG_CACHE_HOME/repro-gpu-cache`` (``~/.cache/repro-gpu-cache``)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-gpu-cache"


class ResultStore:
    """Directory of JSON result blobs keyed by job fingerprint.

    Args:
        root: store directory; created (with parents) on first use.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise NotADirectoryError(
                f"result store path {self.root} exists and is not a directory"
            ) from exc

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        if not key or any(ch in key for ch in "/\\."):
            raise ValueError(f"invalid store key {key!r}")
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[RunReport]:
        """Return the stored report for ``key``, or ``None`` on a miss.

        Every failure mode is a miss (the caller re-simulates); a file
        that exists but cannot be parsed or rebuilt into a report is
        reported with a :class:`RuntimeWarning` so operators learn about
        truncated/corrupt entries instead of paying for silent
        re-simulation forever.
        """
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None  # a clean miss
        except OSError as exc:
            self._warn_corrupt(path, f"unreadable ({exc})")
            return None
        try:
            blob = json.loads(raw)
        except ValueError as exc:
            # malformed/truncated JSON (JSONDecodeError) or non-UTF-8
            # bytes (UnicodeDecodeError)
            self._warn_corrupt(path, f"malformed JSON ({exc})")
            return None
        if not isinstance(blob, Mapping):
            self._warn_corrupt(path, f"expected an object, found {type(blob).__name__}")
            return None
        if blob.get("schema") != SCHEMA_VERSION:
            return None  # a stale-schema entry is expected, not corrupt
        report = blob.get("report")
        if not isinstance(report, Mapping):
            self._warn_corrupt(path, "entry has no report object")
            return None
        try:
            return RunReport.from_dict(report)
        except (ValueError, TypeError) as exc:
            self._warn_corrupt(path, f"report does not deserialize ({exc})")
            return None

    @staticmethod
    def _warn_corrupt(path: Path, reason: str) -> None:
        warnings.warn(
            f"result store entry {path} is corrupt: {reason}; "
            "ignoring it and re-simulating",
            RuntimeWarning,
            stacklevel=3,
        )

    def save(self, key: str, report: RunReport, job: Optional[Mapping[str, object]] = None) -> None:
        """Persist ``report`` under ``key`` atomically.

        Args:
            key: the job fingerprint.
            job: optional human-readable summary of the job inputs, stored
                alongside the report so blobs can be audited with ``jq``.
        """
        path = self._path(key)
        blob: dict[str, object] = {"schema": SCHEMA_VERSION, "key": key, "report": report.to_dict()}
        if job is not None:
            blob["job"] = dict(job)
        # the ".tmp-" prefix keeps writer orphans visible to prune()/stats()
        # (and excluded from keys()) exactly as before the shared writer
        atomic_write_json(
            path,
            blob,
            indent=None,
            trailing_newline=False,
            tmp_prefix=".tmp-",
        )

    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        """Iterate over the keys currently stored.

        Writer orphans (``.tmp-*.json``, matched by pathlib's dotfile-
        inclusive glob) are skipped -- their stems are not valid keys and
        would make ``load`` reject this method's own output.
        """
        for path in self.root.glob("*.json"):
            if not path.name.startswith(".tmp-"):
                yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def clear(self) -> int:
        """Delete every stored blob; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, max_age_days: float) -> int:
        """Delete blobs older than ``max_age_days``; returns the count removed.

        Age is the entry file's modification time -- a blob is re-written
        (and therefore refreshed) whenever its cell is re-simulated, so
        pruning removes results no sweep has produced recently: stale
        configurations, abandoned scales, and entries from old code
        versions that the schema/code-digest keys already treat as misses.
        Leftover ``.tmp-*`` files from crashed writers past the cutoff are
        removed too (they are invisible to :meth:`load` but hold disk).
        The benchmark harness's ``.bench_store`` grows without bound
        otherwise; ``repro-gpu-cache cache prune`` drives this.
        """
        if max_age_days < 0:
            raise ValueError(f"max_age_days must be non-negative, got {max_age_days}")
        cutoff = time.time() - max_age_days * 86400.0
        removed = 0
        # pathlib's glob matches dotfiles, so "*.json" also finds the
        # ".tmp-*.json" orphans -- union the two patterns by path
        for path in {*self.root.glob("*.json"), *self.root.glob(".tmp-*")}:
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                pass  # raced with a writer or another pruner: not our entry to count
        return removed

    def stats(self) -> dict[str, object]:
        """Occupancy summary: entry count, bytes on disk, and age range.

        Ages are in days (``None`` when the store is empty); ``stale_tmp``
        counts orphaned temp files from interrupted writes.  Rendered by
        ``repro-gpu-cache cache stats``.
        """
        now = time.time()
        entries = 0
        total_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for path in self.root.glob("*.json"):
            if path.name.startswith(".tmp-"):
                continue  # writer orphans are reported via stale_tmp, not entries
            try:
                stat = path.stat()
            except OSError:
                continue
            entries += 1
            total_bytes += stat.st_size
            age = now - stat.st_mtime
            oldest = age if oldest is None else max(oldest, age)
            newest = age if newest is None else min(newest, age)
        stale_tmp = sum(1 for _ in self.root.glob(".tmp-*"))
        day = 86400.0
        return {
            "root": str(self.root),
            "entries": entries,
            "total_bytes": total_bytes,
            "oldest_age_days": round(oldest / day, 3) if oldest is not None else None,
            "newest_age_days": round(newest / day, 3) if newest is not None else None,
            "stale_tmp": stale_tmp,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r}, entries={len(self)})"
