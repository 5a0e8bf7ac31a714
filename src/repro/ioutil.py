"""Atomic, durable JSON writes shared by the store, the CLI, telemetry and
the run ledger.

Every artifact this repository persists -- result-store blobs, CLI
figure JSON, telemetry traces, the run ledger -- must survive two failure
modes: a reader racing the writer (it must never observe a torn file) and
a crash or power cut mid-write (an existing good file must never be
replaced by a truncated one).  :func:`_replace_durably` is the one
implementation of the temp-file + ``flush`` + ``fsync`` + ``os.replace``
dance; :func:`atomic_write_json` writes a JSON document through it and
:func:`rewrite_jsonl` a whole JSONL log (the ledger's prune).  A growing
log appends with :func:`append_jsonl` instead.  Every form sorts keys and
fsyncs: no caller wants it otherwise.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Optional

__all__ = ["append_jsonl", "atomic_write_json", "read_jsonl", "rewrite_jsonl"]


def _mkdir_parent(target: Path) -> None:
    if target.parent != Path():
        target.parent.mkdir(parents=True, exist_ok=True)


def _jsonl_line(record: object) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _replace_durably(
    path: str | os.PathLike[str], text: str, tmp_prefix: Optional[str] = None
) -> None:
    """Replace ``path``'s contents with ``text`` atomically and durably.

    The text is written to a temp file in the *same directory* (so the
    final ``os.replace`` is a same-filesystem rename, which POSIX makes
    atomic), fsynced before the rename (so a power cut cannot replace a
    good file with an empty one), and the temp file is unlinked on any
    failure so interrupted writes leave no debris behind a glob.
    ``tmp_prefix`` names the temp file; callers with orphan-cleanup globs
    (the result store's ``.tmp-*``) pass their own.
    """
    target = Path(path)
    _mkdir_parent(target)
    prefix = tmp_prefix if tmp_prefix is not None else f".{target.name}."
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent) or ".", prefix=prefix, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_json(
    path: str | os.PathLike[str],
    payload: object,
    indent: Optional[int] = 1,
    trailing_newline: bool = True,
    tmp_prefix: Optional[str] = None,
) -> None:
    """Serialize ``payload`` (keys sorted) to ``path`` atomically and durably.

    Args:
        path: destination file; parent directories are created.
        indent / trailing_newline: the defaults match the CLI's
            human-auditable artifacts; the store passes ``indent=None,
            trailing_newline=False`` for compact blobs.
        tmp_prefix: temp-file name prefix (see :func:`_replace_durably`).
    """
    text = json.dumps(payload, indent=indent, sort_keys=True)
    _replace_durably(path, text + "\n" if trailing_newline else text, tmp_prefix)


def rewrite_jsonl(path: str | os.PathLike[str], records: Iterable[object]) -> None:
    """Replace the JSONL log at ``path`` with ``records``, one compact line
    each, atomically and durably: a failed rewrite leaves the old log."""
    _replace_durably(path, "".join(_jsonl_line(record) for record in records))


def append_jsonl(path: str | os.PathLike[str], record: object) -> None:
    """Append one compact JSON line to ``path`` durably.

    The append-only counterpart of :func:`atomic_write_json` for growing
    logs (the run ledger): the whole record is serialized first and
    written in a single ``write`` on an ``O_APPEND`` handle, so concurrent
    appenders interleave whole lines, and the handle is flushed + fsynced
    before close so a power cut cannot lose an acknowledged entry.
    Readers tolerate a torn trailing line (see :func:`read_jsonl`), so
    even a crash mid-``write`` only costs the entry being written.
    Parent directories are created.
    """
    target = Path(path)
    _mkdir_parent(target)
    line = _jsonl_line(record)
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(line)
        handle.flush()
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
