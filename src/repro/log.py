"""Run-scoped structured logging for the execution layer.

The simulator itself stays silent -- determinism and bit-identical reports
leave no room for logging on the hot path -- but the *execution* layer
around it (the sweep executor's retry machinery, the CLI's command
lifecycle) has operational moments worth a log line.  This module is the
one logging surface they share:

* :func:`get_logger` hands out cheap named loggers with optional bound
  context (``get_logger("repro.executor", sweep="figure7")``).
* Logging is **disabled by default**: until :func:`configure` is called,
  every logging call is a no-op that never touches a stream, so historical
  stdout/stderr stay byte-identical and no test output changes.
* :func:`configure` turns output on: human-readable lines to a stream
  (stderr by default) or a file, or JSON-lines (one object per line, for
  machine ingestion) with ``json_lines=True``.

Events are a short snake_case name plus keyword fields::

    log = get_logger("repro.executor")
    log.warning("batch_retry", attempt=2, pending=3)
    # 14:02:11 WARNING repro.executor batch_retry attempt=2 pending=3

The stdlib ``logging`` module is deliberately not used: its process-global
root logger, handler caching and level inheritance are shared mutable
state that test runners and library consumers fight over; this sink is a
single module-level reference that tests reset with :func:`reset`.
"""

from __future__ import annotations

import json
import sys
import time
from typing import IO, Optional

__all__ = ["StructuredLogger", "configure", "get_logger", "reset"]

#: numeric severities (stdlib-compatible ordering)
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class _LogSink:
    """Where configured log records go: one stream, one format, one level."""

    def __init__(
        self,
        stream: Optional[IO[str]],
        path: Optional[str],
        json_lines: bool,
        min_level: int,
    ) -> None:
        self.stream = stream
        self.path = path
        self.json_lines = json_lines
        self.min_level = min_level

    def emit(self, logger: str, level: str, event: str, fields: dict) -> None:
        if LEVELS[level] < self.min_level:
            return
        now = time.time()
        if self.json_lines:
            record = {"ts": round(now, 3), "level": level, "logger": logger, "event": event}
            record.update(fields)
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        else:
            clock = time.strftime("%H:%M:%S", time.localtime(now))
            suffix = "".join(f" {key}={value}" for key, value in fields.items())
            line = f"{clock} {level.upper()} {logger} {event}{suffix}"
        if self.path is not None:
            # append per record: logs are low-rate (command lifecycle,
            # retries), and an open handle held across
            # fork-based process pools is a sharper edge than re-opening
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        else:
            stream = self.stream if self.stream is not None else sys.stderr
            print(line, file=stream)


#: the active sink; None = logging disabled (the default, and the exact
#: historical no-output behaviour)
_sink: Optional[_LogSink] = None


def configure(
    level: str = "info",
    stream: Optional[IO[str]] = None,
    path: Optional[str] = None,
    json_lines: bool = False,
) -> None:
    """Enable structured logging process-wide.

    Args:
        level: minimum severity emitted (``debug``/``info``/``warning``/
            ``error``).
        stream: destination stream (default: ``sys.stderr`` at emit time).
        path: destination file (appended); takes precedence over ``stream``.
        json_lines: emit one JSON object per line instead of human text.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r}; pick one of {sorted(LEVELS)}")
    global _sink
    _sink = _LogSink(stream=stream, path=path, json_lines=json_lines, min_level=LEVELS[level])


def reset() -> None:
    """Disable logging again (tests restore the default around configure)."""
    global _sink
    _sink = None


class StructuredLogger:
    """A named logger with optional bound context fields.

    Instances are cheap and stateless apart from their name and bound
    fields; every call re-reads the module sink, so a logger created
    before :func:`configure` still emits afterwards (and one created
    during an enabled phase goes quiet after :func:`reset`).
    """

    def __init__(self, name: str, **bound: object) -> None:
        self.name = name
        self.bound = bound

    @property
    def enabled(self) -> bool:
        return _sink is not None

    def _log(self, level: str, event: str, fields: dict) -> None:
        sink = _sink
        if sink is None:
            return
        merged = dict(self.bound)
        merged.update(fields)
        sink.emit(self.name, level, event, merged)

    def debug(self, event: str, **fields: object) -> None:
        self._log("debug", event, fields)

    def info(self, event: str, **fields: object) -> None:
        self._log("info", event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._log("warning", event, fields)

    def error(self, event: str, **fields: object) -> None:
        self._log("error", event, fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StructuredLogger({self.name!r}, enabled={self.enabled})"


def get_logger(name: str, **bound: object) -> StructuredLogger:
    """The module-level factory every adopting component uses."""
    return StructuredLogger(name, **bound)
