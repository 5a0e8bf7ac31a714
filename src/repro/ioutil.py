"""Atomic, durable JSON writes shared by the store, checkpoints and CLI.

Every artifact this repository persists -- result-store blobs, sweep
checkpoints, CLI figure JSON, telemetry traces -- must survive two failure
modes: a reader racing the writer (it must never observe a torn file) and
a crash or power cut mid-write (an existing good file must never be
replaced by a truncated one).  :func:`atomic_write_json` is the one
implementation of the temp-file + ``flush`` + ``fsync`` + ``os.replace``
dance, extracted from :meth:`repro.experiments.store.ResultStore.save` so
the CLI artifacts and the telemetry outputs get exactly the same
guarantees.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

__all__ = ["append_jsonl", "atomic_write_json", "read_jsonl"]


def atomic_write_json(
    path: str | os.PathLike[str],
    payload: object,
    indent: Optional[int] = 1,
    sort_keys: bool = True,
    trailing_newline: bool = True,
    tmp_prefix: Optional[str] = None,
) -> None:
    """Serialize ``payload`` to ``path`` atomically and durably.

    The JSON is written to a temp file in the *same directory* (so the
    final ``os.replace`` is a same-filesystem rename, which POSIX makes
    atomic), fsynced before the rename (so a power cut cannot replace a
    good file with an empty one), and the temp file is unlinked on any
    failure so interrupted writes leave no debris behind a glob.

    Args:
        path: destination file; parent directories are created.
        indent / sort_keys / trailing_newline: serialization knobs -- the
            defaults match the CLI's human-auditable artifacts, the store
            passes ``indent=None, trailing_newline=False`` for compact
            blobs.
        tmp_prefix: temp-file name prefix; callers with orphan-cleanup
            globs (the result store's ``.tmp-*``) pass their own.
    """
    target = Path(path)
    if target.parent != Path():
        target.parent.mkdir(parents=True, exist_ok=True)
    prefix = tmp_prefix if tmp_prefix is not None else f".{target.name}."
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent) or ".", prefix=prefix, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent, sort_keys=sort_keys)
            if trailing_newline:
                handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def append_jsonl(path: str | os.PathLike[str], record: object, fsync: bool = True) -> None:
    """Append one compact JSON line to ``path`` durably.

    The append-only counterpart of :func:`atomic_write_json` for growing
    logs (the run ledger): the whole record is serialized first and
    written in a single ``write`` on an ``O_APPEND`` handle, so concurrent
    appenders interleave whole lines, and the handle is flushed + fsynced
    before close so a power cut cannot lose an acknowledged entry.
    Readers tolerate a torn trailing line (see :func:`read_jsonl`), so
    even a crash mid-``write`` only costs the entry being written.

    Args:
        path: destination file; parent directories are created.
        record: JSON-serializable payload for one line.
        fsync: durability barrier after the write (disable only for logs
            where losing the tail on power cut is acceptable).
    """
    target = Path(path)
    if target.parent != Path():
        target.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(line)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())


def read_jsonl(path: str | os.PathLike[str]) -> list[dict]:
    """Parse a JSONL file tolerantly: each well-formed object line becomes
    a dict, torn/corrupt lines and non-object lines are skipped.

    A missing file reads as empty -- callers treat JSONL logs as
    append-only registries where absence simply means "nothing recorded
    yet".
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return []
    records: list[dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            blob = json.loads(line)
        except ValueError:
            continue  # torn tail from a crashed writer: skip, keep reading
        if isinstance(blob, dict):
            records.append(blob)
    return records
