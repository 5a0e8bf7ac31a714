"""Bucketed event scheduler for the discrete-event engine.

Events fire in ``(time, scheduling order)`` order: two events scheduled
for the same cycle fire in the order they were scheduled, which keeps the
simulator fully reproducible.  The queue stores that order directly
instead of sorting ``(time, sequence, callback)`` tuples in one binary
heap: every pending cycle owns a FIFO list of callbacks (its *bucket*),
and only the distinct pending cycles sit in a heap of plain ints.  A
simulated cycle typically carries several events (a lookup, a hit
response, a link delivery ...), so most schedules are one ``list.append``
and the heap sifts once per cycle instead of once per event, comparing
ints rather than tuples.  An event scheduled for the cycle being drained
(a zero delay) lands at the end of that cycle's bucket, exactly where a
sequence-number tie-break would have put it.

Cancellation is deliberately kept off this fast path.  The ordinary
:meth:`EventQueue.schedule` / :meth:`EventQueue.schedule_at` calls are
fire-and-forget (they return ``None``); the rare caller that needs to
revoke an event uses :meth:`EventQueue.schedule_cancellable`, which
queues an :class:`Event` handle in place of the bare callback.  A
cancelled handle goes into a side set that the drain loop consults only
when non-empty, so simulations that never cancel (all of them, today) pay
a single truth test per event.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable

__all__ = ["Event", "EventQueue"]


class Event:
    """Handle for a cancellable scheduled callback.

    Only :meth:`EventQueue.schedule_cancellable` returns these; ordinary
    scheduling does not allocate a handle.  The handle itself is what sits
    in the queue: calling it fires the wrapped callback.
    """

    __slots__ = ("time", "callback", "cancelled", "fired", "_queue")

    def __init__(self, queue: "EventQueue", time: int, callback: Callable[[], Any]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._queue = queue

    def __call__(self) -> None:
        self.fired = True
        self.callback()

    def cancel(self) -> None:
        """Mark the event so it is skipped when its cycle is drained.

        Cancelling an event that already fired is a no-op.
        """
        if not self.cancelled and not self.fired:
            self.cancelled = True
            self._queue._cancelled.add(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "fired" if self.fired else "pending"
        return f"Event(time={self.time}, {state})"


class EventQueue:
    """A deterministic discrete-event queue.

    The queue tracks the current simulation time (in cycles).  Components
    schedule work with :meth:`schedule` (relative delay) or
    :meth:`schedule_at` (absolute time); the simulator driver repeatedly
    takes the earliest event and invokes its callback.
    """

    __slots__ = ("_buckets", "_times", "_cursor", "now", "_executed", "_cancelled")

    def __init__(self) -> None:
        #: pending cycle -> its callbacks in scheduling order
        self._buckets: dict[int, list[Callable[[], Any]]] = {}
        #: heap of the cycles that own a bucket
        self._times: list[int] = []
        #: index of the next callback to fire in the earliest bucket (a
        #: drain that stops mid-cycle resumes there)
        self._cursor = 0
        #: current simulation time in cycles.  A plain attribute rather than
        #: a property: components read it on nearly every event, and only
        #: the queue itself may advance it.
        self.now = 0
        self._executed = 0
        #: cancelled-but-not-yet-drained :class:`Event` handles
        self._cancelled: set[Event] = set()

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return sum(map(len, self._buckets.values())) - self._cursor

    @property
    def executed(self) -> int:
        """Number of events executed so far."""
        return self._executed

    def schedule(self, delay: int | float, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        Delays are rounded up to whole cycles; negative delays are an error.
        Integer delays (the overwhelmingly common case) skip the rounding
        entirely.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        time = self.now + (delay if delay.__class__ is int else int(round(delay)))
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heappush(self._times, time)
        else:
            bucket.append(callback)

    def schedule_at(self, time: int, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` to run at absolute cycle ``time``."""
        if time.__class__ is not int:
            time = int(time)
        if time < self.now:
            raise ValueError(
                f"cannot schedule an event at {time}, current time is {self.now}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heappush(self._times, time)
        else:
            bucket.append(callback)

    def schedule_cancellable(
        self, delay: int | float, callback: Callable[[], Any]
    ) -> Event:
        """Like :meth:`schedule`, but return a handle that can cancel.

        Cancellable events ride the same buckets as ordinary ones; only the
        handle allocation and the cancelled-handle bookkeeping are extra.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        time = self.now + (delay if delay.__class__ is int else int(round(delay)))
        event = Event(self, time, callback)
        self.schedule_at(time, event)
        return event

    def _next(self) -> Callable[[], Any] | None:
        """Take the earliest queued callback (advancing ``now``), or None."""
        times = self._times
        buckets = self._buckets
        while times:
            time = times[0]
            bucket = buckets[time]
            index = self._cursor
            if index < len(bucket):
                self._cursor = index + 1
                self.now = time
                return bucket[index]
            heappop(times)
            del buckets[time]
            self._cursor = 0
        return None

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        cancelled = self._cancelled
        while True:
            callback = self._next()
            if callback is None:
                # empty queue: any remaining cancelled handles are stale
                cancelled.clear()
                return False
            if cancelled and callback in cancelled:
                cancelled.discard(callback)
                continue
            self._executed += 1
            callback()
            return True

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Drain the queue.

        Args:
            until: stop once simulation time passes this cycle (events at
                later times remain queued).
            max_events: safety bound on the number of events to execute.

        Returns:
            The simulation time when the run stopped.
        """
        # Hot loop: one bucket (cycle) at a time, and per event only an
        # index step, a truth test for the (empty, in practice) cancelled
        # set and the callback.  The executed count is committed per event
        # (not batched on exit) so callbacks that read ``self.executed``
        # mid-run -- the fast-forward sampler's per-kernel measurements --
        # observe a live value.  The cursor is saved in ``finally`` so a
        # raising callback leaves the queue consistent (its event consumed).
        times = self._times
        buckets = self._buckets
        cancelled = self._cancelled
        limit = sys.maxsize if max_events is None else max_events
        executed = 0
        index = self._cursor
        try:
            while times and executed < limit:
                time = times[0]
                if until is not None and time > until:
                    self.now = until
                    break
                bucket = buckets[time]
                self.now = time
                while index < len(bucket):
                    if executed >= limit:
                        break
                    callback = bucket[index]
                    index += 1
                    if cancelled and callback in cancelled:
                        cancelled.discard(callback)
                        continue
                    executed += 1
                    self._executed += 1
                    callback()
                else:
                    heappop(times)
                    del buckets[time]
                    index = 0
                    continue
                break
        finally:
            self._cursor = index
        if not times and cancelled:
            # drained: no queued handle can match, drop any stale ones
            cancelled.clear()
        return self.now

    def run_profiled(
        self,
        profiler: Any,
        until: int | None = None,
        max_events: int | None = None,
    ) -> int:
        """Drain the queue like :meth:`run`, timing every callback.

        A separate instrumented copy of the :meth:`run` loop -- same firing
        order, same ``until`` semantics, same executed accounting, so the
        simulated results are bit-identical -- that wraps each callback in
        a ``perf_counter`` pair and reports it to ``profiler`` (a
        :class:`repro.telemetry.profiler.SimProfiler`).  Kept apart so the
        production loop pays nothing when profiling is off.  Cancellable
        events are charged to the callback their handle wraps.
        """
        from time import perf_counter

        times = self._times
        buckets = self._buckets
        cancelled = self._cancelled
        record = profiler.record
        limit = sys.maxsize if max_events is None else max_events
        executed = 0
        index = self._cursor
        wall_start = perf_counter()
        try:
            while times and executed < limit:
                time = times[0]
                if until is not None and time > until:
                    self.now = until
                    break
                bucket = buckets[time]
                self.now = time
                while index < len(bucket):
                    if executed >= limit:
                        break
                    callback = bucket[index]
                    index += 1
                    if cancelled and callback in cancelled:
                        cancelled.discard(callback)
                        continue
                    executed += 1
                    self._executed += 1
                    started = perf_counter()
                    callback()
                    record(
                        callback.callback if callback.__class__ is Event else callback,
                        perf_counter() - started,
                    )
                else:
                    heappop(times)
                    del buckets[time]
                    index = 0
                    continue
                break
            if not times and cancelled:
                cancelled.clear()
        finally:
            self._cursor = index
            profiler.add_wall(perf_counter() - wall_start)
        return self.now
