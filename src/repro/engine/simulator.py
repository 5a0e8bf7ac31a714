"""Top-level simulation driver.

:class:`Simulator` owns the event queue and gives components a single point
to schedule events, query the current time and register end-of-simulation
hooks.  The memory hierarchy, the GPU model and the workload driver all hold
a reference to the same ``Simulator``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.engine.event_queue import EventQueue

__all__ = ["Simulator"]


class Simulator:
    """Discrete-event simulator driver.

    A thin facade over :class:`~repro.engine.event_queue.EventQueue` that
    also carries a deadlock guard (``max_events``) so a mis-wired model
    fails loudly instead of spinning forever.  The budget is an *aggregate*
    across the simulator's lifetime: repeated :meth:`run` calls on one
    simulator share it, so a caller stepping a simulation in slices cannot
    execute more than ``max_events`` events in total.  It counts events,
    not callbacks: every poll of an MSHR poll group counts, and a group
    that reaches the budget still fires whole (see
    :meth:`~repro.engine.event_queue.EventQueue.run`).
    """

    #: default safety bound on executed events for a single simulator
    DEFAULT_MAX_EVENTS = 50_000_000

    def __init__(self, max_events: int | None = None) -> None:
        self.queue = EventQueue()
        self.max_events = max_events or self.DEFAULT_MAX_EVENTS
        self._finish_hooks: list[Callable[[int], None]] = []

    @property
    def now(self) -> int:
        """Current simulation time in GPU cycles."""
        return self.queue.now

    def schedule(self, delay: int | float, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        self.queue.schedule(delay, callback)

    def on_finish(self, hook: Callable[[int], None]) -> None:
        """Register a hook invoked with the final time when :meth:`run` ends."""
        self._finish_hooks.append(hook)

    def run(self, until: int | None = None) -> int:
        """Run until the event queue drains (or ``until`` is reached).

        Returns the final simulation time.  Raises ``RuntimeError`` if the
        aggregate event budget is exhausted with work still pending, which
        almost always indicates a livelock in a timing model.
        """
        remaining = self.max_events - self.queue.executed
        final = self.queue.run(until=until, max_events=max(0, remaining))
        if self.queue.pending and self.queue.executed >= self.max_events:
            raise RuntimeError(
                f"simulation exceeded the event budget of {self.max_events} events; "
                "a component is probably rescheduling itself without making progress"
            )
        for hook in self._finish_hooks:
            hook(final)
        return final
