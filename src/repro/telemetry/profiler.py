"""Host-side simulator performance measurement.

Simulated metrics say nothing about why a *sweep* is slow.  The
:class:`SimProfiler` measures the simulator itself: wall-clock time inside
the event loop, events executed per second, and where the time went,
attributed per *component* (the class whose method -- or whose enclosing
method's closure -- each event callback is).  Attribution uses
:func:`component_of`, which maps a bound method to its class name and a
closure to the class that defined it, so ``Cache``/``DramChannel``/``Gpu``
show up as themselves instead of a wall of ``<lambda>``.  A callback that
stands for several events (an MSHR poll group) is charged with all of
them, so :attr:`SimProfiler.events` equals the queue's executed count.

Profiling uses a separate instrumented event loop
(:meth:`repro.engine.event_queue.EventQueue.run_profiled`): the production
:meth:`~repro.engine.event_queue.EventQueue.run` hot loop is untouched, so
runs without a profiler pay nothing.  The profiled loop executes the exact
same event sequence (simulated results are bit-identical); only host time
is observed.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

__all__ = ["SimProfiler", "component_of"]


def component_of(callback: Callable[[], Any]) -> str:
    """The component name host time spent in ``callback`` is charged to.

    Bound methods charge their class; ``functools.partial`` unwraps to the
    wrapped callable; closures and lambdas charge the class (or function)
    that defined them, derived from ``__qualname__``
    (``"Cache._finish_fill.<locals>.done"`` -> ``"Cache"``).  A callable
    object that fires another component's events names that component in
    a ``component`` attribute (a poll group charges ``"Cache"``).
    """
    while isinstance(callback, functools.partial):
        callback = callback.func
    component = getattr(callback, "component", None)
    if component is not None:
        return component
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return type(owner).__name__
    qualname = getattr(callback, "__qualname__", None)
    if qualname:
        return qualname.split(".")[0]
    return type(callback).__name__


class SimProfiler:
    """Accumulates host-time attribution over one (or more) event loops."""

    def __init__(self) -> None:
        self.wall_seconds = 0.0
        self.events = 0
        self.component_seconds: dict[str, float] = {}
        self.component_events: dict[str, int] = {}

    # ------------------------------------------------------------------
    # called by EventQueue.run_profiled
    # ------------------------------------------------------------------
    def record(
        self, callback: Callable[[], Any], seconds: float, events: int = 1
    ) -> None:
        """Charge one callback's host time, and the ``events`` executed
        events it stood for, to its component."""
        name = component_of(callback)
        self.events += events
        self.component_seconds[name] = (
            self.component_seconds.get(name, 0.0) + seconds
        )
        self.component_events[name] = self.component_events.get(name, 0) + events

    def add_wall(self, seconds: float) -> None:
        """Add one event-loop invocation's total wall time."""
        self.wall_seconds += seconds

    # ------------------------------------------------------------------
    @property
    def events_per_second(self) -> float:
        """Host-side event throughput (0.0 before any events ran)."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> dict[str, object]:
        """JSON-ready profile: totals plus per-component attribution,
        biggest time consumer first."""
        callback_seconds = sum(self.component_seconds.values())
        components = [
            {
                "component": name,
                "events": self.component_events.get(name, 0),
                "seconds": seconds,
                "share": seconds / callback_seconds if callback_seconds else 0.0,
            }
            for name, seconds in sorted(
                self.component_seconds.items(), key=lambda item: (-item[1], item[0])
            )
        ]
        return {
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "events_per_second": self.events_per_second,
            "callback_seconds": callback_seconds,
            "components": components,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimProfiler(events={self.events}, wall={self.wall_seconds:.3f}s, "
            f"{len(self.component_seconds)} components)"
        )
