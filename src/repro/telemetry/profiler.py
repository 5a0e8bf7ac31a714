"""Host-side simulator performance measurement.

Simulated metrics say nothing about why a *sweep* is slow.  The
:class:`SimProfiler` measures the simulator itself with the stdlib's
:mod:`cProfile`, over one whole
:meth:`~repro.session.SimulationSession.run`: trace build, partitioning,
the event loop and the finished report.  Its summary is a *module
table*: each profiled function's self time summed into the source file
that defines it, named by its path below the package (``memory/cache.py``,
``engine/event_queue.py`` ...).  A C builtin has no source file, so its
time is charged to its callers' modules, in proportion to the time
recorded per caller.  Time in code outside the package (the stdlib, the
interpreter) is one ``python`` row.

The event loop is the production
:meth:`~repro.engine.event_queue.EventQueue.run`, so a profiled run
executes the exact same events (its results are bit-identical); only host
time is observed.  ``cProfile`` hooks every Python and builtin call, so a
profiled run takes about three times as long as a plain one.  It also
takes the interpreter's one profiler slot (the profile hook up to Python
3.11, the ``sys.monitoring`` profiler tool from 3.12), so a profiled
session refuses to start under another profiler rather than cut it off.
"""

from __future__ import annotations

import cProfile
import os
import sys
from time import perf_counter
from typing import TYPE_CHECKING

import repro

if TYPE_CHECKING:
    from repro.engine.event_queue import EventQueue

__all__ = ["SimProfiler", "module_table", "profiling_active"]

#: profiled files under this directory are named by their path below it
_PACKAGE_ROOT = os.path.dirname(repro.__file__) + os.sep

#: the module-table row for time outside the package
OUTSIDE = "python"


def profiling_active() -> bool:
    """Whether a profiler holds the interpreter's profiler slot.

    Up to Python 3.11 ``cProfile`` (like any profiler) installs the
    profile hook; from 3.12 ``cProfile`` claims the ``sys.monitoring``
    profiler tool instead and leaves ``sys.getprofile()`` at ``None``.
    """
    if sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and monitoring.get_tool(monitoring.PROFILER_ID) is not None


def _module_of(filename: str) -> str:
    if filename.startswith(_PACKAGE_ROOT):
        return filename[len(_PACKAGE_ROOT):].replace(os.sep, "/")
    return OUTSIDE


def module_table(stats: dict) -> dict[str, float]:
    """Seconds of self time per source module, largest first.

    ``stats`` is a ``cProfile``/``pstats`` stats map: ``(file, line,
    name) -> (calls, primitive calls, tottime, cumtime, callers)``.  A
    builtin (file ``"~"``) is charged to each caller's module with the
    time recorded against that caller; what no caller holds goes to
    ``python``.
    """
    seconds: dict[str, float] = {}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in stats.items():
        if filename != "~":
            module = _module_of(filename)
            seconds[module] = seconds.get(module, 0.0) + tottime
            continue
        for (caller, _cline, _cname), (_cnc, _ccc, caller_tt, _cct) in callers.items():
            module = _module_of(caller)
            seconds[module] = seconds.get(module, 0.0) + caller_tt
            tottime -= caller_tt
        if tottime > 0:
            seconds[OUTSIDE] = seconds.get(OUTSIDE, 0.0) + tottime
    return dict(sorted(seconds.items(), key=lambda item: (-item[1], item[0])))


class SimProfiler:
    """``cProfile`` over one session, reporting events/sec and the module
    table.  ``events`` is ``queue``'s executed count."""

    def __init__(self, queue: EventQueue) -> None:
        self.queue = queue
        self.wall_seconds = 0.0
        self._profile = cProfile.Profile()
        self._started: float | None = None

    def start(self) -> None:
        """Begin profiling (``SimulationSession.run`` calls this first).

        Raises ``RuntimeError`` when another profiler is running (see
        :func:`profiling_active`): on Python 3.11 enabling would take the
        hook over and end that profile, from 3.12 it would fail.
        """
        if profiling_active():
            raise RuntimeError(
                "another profiler is running; a profiled session cannot nest inside it"
            )
        self._profile.enable()
        self._started = perf_counter()

    def stop(self) -> None:
        """End profiling; a no-op when it is not running."""
        if self._started is None:
            return
        self._profile.disable()
        self.wall_seconds += perf_counter() - self._started
        self._started = None

    @property
    def events(self) -> int:
        """Events the queue executed (every grouped MSHR poll counts)."""
        return self.queue.executed

    @property
    def events_per_second(self) -> float:
        """Host-side event throughput (0.0 before any profiled time)."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> dict[str, object]:
        """JSON-ready profile: totals, the module table (see
        :func:`module_table`) with each row's share of the profiled self
        time, and ``accounted_share`` -- that self time over the profiled
        wall time.  Stops the profile if it is still running."""
        self.stop()
        self._profile.create_stats()
        seconds = module_table(self._profile.stats)
        total = sum(seconds.values())
        return {
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "events_per_second": self.events_per_second,
            "modules": {
                name: {"seconds": value, "share": value / total if total else 0.0}
                for name, value in seconds.items()
            },
            "accounted_share": total / self.wall_seconds if self.wall_seconds > 0 else 0.0,
        }
