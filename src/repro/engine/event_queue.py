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

One callback may stand for several counted events.  The caches fire the
MSHR-full polls that sit next to each other in a bucket as one *poll
group* (see :mod:`repro.memory.cache`); the group :meth:`credits
<EventQueue.credit>` its other members, so :attr:`EventQueue.executed`
and the ``max_events`` budgets count every poll, exactly as if each had
been its own callback.  :attr:`EventQueue.pending` counts callbacks.

The buckets are public as :attr:`EventQueue.at`, a ``cycle -> callbacks``
map that the hot components append to directly (``queue.at[grant]
.append(cb)``), so a request hop costs one subscript and one append and
no ``schedule`` frame.  The map is a :class:`_Buckets` dict whose
``__missing__`` does everything :meth:`~EventQueue.schedule_at` used to
do for a new cycle: truncate a fractional time, refuse a time before
``now`` and push the cycle onto the heap.  The past-time check can live
there alone because a drained cycle's bucket is deleted as the loop
leaves it, so every live bucket is at or after ``now``: a past time never
finds a bucket and always reaches ``__missing__``.  Reading the map with
``at.get(t)`` never creates a bucket.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable

__all__ = ["EventQueue"]


class _Buckets(dict):
    """The queue's ``cycle -> callbacks`` map; a miss opens a new cycle.

    ``buckets[t]`` returns cycle ``t``'s FIFO list, creating it (and
    heap-pushing ``t``) when ``t`` has none.  A fractional ``t`` is
    truncated toward zero (``int``: 11.7 -> 11, joining bucket 11 when it
    exists); a ``t`` before the queue's ``now`` raises ``ValueError``.
    """

    __slots__ = ("_queue",)

    def __init__(self, queue: "EventQueue") -> None:
        super().__init__()
        self._queue = queue

    def __missing__(self, time: int | float) -> list[Callable[[], Any]]:
        if time.__class__ is not int:
            time = int(time)
            bucket = self.get(time)
            if bucket is not None:
                return bucket
        queue = self._queue
        if time < queue.now:
            raise ValueError(
                f"cannot schedule an event at {time}, current time is {queue.now}"
            )
        bucket = self[time] = []
        heappush(queue._times, time)
        return bucket


class EventQueue:
    """A deterministic discrete-event queue.

    The queue tracks the current simulation time (in cycles).  Components
    schedule work with :meth:`schedule` (relative delay) or
    :meth:`schedule_at` (absolute time), or append to a cycle's bucket in
    :attr:`at` directly; the simulator driver repeatedly takes the
    earliest event and invokes its callback.
    """

    __slots__ = ("at", "_times", "_cursor", "now", "_executed")

    def __init__(self) -> None:
        #: heap of the cycles that own a bucket
        self._times: list[int] = []
        #: pending cycle -> its callbacks in scheduling order;
        #: ``at[t].append(cb)`` schedules ``cb`` at cycle ``t``
        self.at: _Buckets = _Buckets(self)
        #: index of the next callback to fire in the earliest bucket (a
        #: drain that stops mid-cycle resumes there)
        self._cursor = 0
        #: current simulation time in cycles.  A plain attribute rather than
        #: a property: components read it on nearly every event, and only
        #: the queue itself may advance it.
        self.now = 0
        self._executed = 0

    @property
    def pending(self) -> int:
        """Number of callbacks still queued (a poll group counts once)."""
        return sum(map(len, self.at.values())) - self._cursor

    @property
    def executed(self) -> int:
        """Number of events executed so far."""
        return self._executed

    def credit(self, events: int) -> None:
        """Count ``events`` more executed events.

        Called by a callback that stands for ``events + 1`` events (the
        loop counted the callback itself as one).
        """
        self._executed += events

    def schedule(self, delay: int | float, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        A fractional delay is rounded to the nearest whole cycle, ties to
        even (Python's ``round``: 1.4 -> 1, 0.5 -> 0, 2.5 -> 2); negative
        delays are an error.  Integer delays (the overwhelmingly common
        case) skip the rounding entirely.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        self.at[
            self.now + (delay if delay.__class__ is int else int(round(delay)))
        ].append(callback)

    def schedule_at(self, time: int, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` to run at absolute cycle ``time``.

        A fractional ``time`` is truncated toward zero to a whole cycle
        (``int``: 11.7 -> 11); a time before ``now`` is an error.
        """
        self.at[time].append(callback)

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Drain the queue.

        Args:
            until: stop once simulation time passes this cycle (events at
                later times remain queued).
            max_events: safety bound on the number of events to execute.
                Every event a callback credits counts against it.  A
                callback is never split, so the run stops after the first
                callback that reaches the bound: it overshoots by at most
                that callback's credited events -- one poll group's size
                minus one.

        Returns:
            The simulation time when the run stopped.
        """
        # Hot loop: one bucket (cycle) at a time, and per event only an
        # index step and the callback.  The executed count is committed
        # per event (not batched on exit) so callbacks that read
        # ``self.executed`` mid-run -- the fast-forward sampler's
        # per-kernel measurements -- observe a live value, and the budget
        # is checked against it so events credited by poll groups count.
        # The cursor is saved in ``finally`` so a raising callback leaves
        # the queue consistent (its event consumed).
        times = self._times
        buckets = self.at
        stop = sys.maxsize if max_events is None else self._executed + max_events
        index = self._cursor
        try:
            while times and self._executed < stop:
                time = times[0]
                if until is not None and time > until:
                    self.now = until
                    break
                bucket = buckets[time]
                self.now = time
                while index < len(bucket):
                    if self._executed >= stop:
                        break
                    callback = bucket[index]
                    index += 1
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
        return self.now
