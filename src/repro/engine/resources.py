"""Contention primitives used by the timing models.

Two abstractions cover every contended structure in the simulator:

* :class:`ThroughputResource` -- a pipe that accepts one grant every
  ``cycles_per_grant`` cycles (cache tag ports, SIMD issue slots, DRAM data
  buses).  Callers ask for the earliest grant time at-or-after their arrival
  and the resource books it, so no per-cycle polling is needed.
* :class:`WaitQueue` -- an explicit waiter list used for blocking conditions
  such as "all ways in this set are busy" or "this DRAM bank queue is
  full".  Waiters are woken in FIFO order when the owner signals that
  capacity became available.

MSHR exhaustion is the one blocking condition that uses neither: a request
that finds no free MSHR polls for one every 64 cycles (see
``Cache._block``), because a released MSHR may be consumed by a request
that then hits or coalesces, which could strand an event-driven waiter.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

__all__ = ["ThroughputResource", "WaitQueue"]


class ThroughputResource:
    """A resource that can accept one grant every ``cycles_per_grant`` cycles.

    The resource keeps a cursor of the next free cycle.  A request arriving
    at time ``t`` is granted at ``max(t, cursor)`` and the cursor advances.
    The resource keeps no contention totals: a caller that reports stalls
    (the caches' tag ports) compares the grant cycle with its own arrival
    and counts them itself.
    """

    __slots__ = ("cycles_per_grant", "_next_free")

    def __init__(self, cycles_per_grant: float = 1.0) -> None:
        if cycles_per_grant <= 0:
            raise ValueError("cycles_per_grant must be positive")
        self.cycles_per_grant = cycles_per_grant
        self._next_free = 0.0

    def grant(self, now: int) -> int:
        """Book the next available slot at or after ``now``.

        Returns the cycle at which the grant occurs.  The uncontended case
        (``now`` at or past the cursor) takes the branch with no float
        conversions; both branches book exactly the same cursor value the
        previous ``max(float(now), ...)`` formulation did.
        """
        next_free = self._next_free
        if now >= next_free:
            self._next_free = now + self.cycles_per_grant
            return now
        self._next_free = next_free + self.cycles_per_grant
        return int(next_free)

    def grant_duration(self, now: int, duration: float) -> int:
        """Book the resource exclusively for ``duration`` cycles.

        Used for variable-length occupancies such as a SIMD executing a batch
        of vector operations.  Returns the cycle at which the occupancy ends.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(float(now), self._next_free)
        self._next_free = start + duration
        return int(round(start + duration))


class WaitQueue:
    """FIFO list of blocked continuations.

    Used for structural hazards that cannot be expressed as a fixed
    throughput: blocked cache allocation (busy set) and full DRAM bank
    queues.  Exhausted MSHRs do not wait here; blocked requests poll
    instead (see the module docstring).  The owner calls :meth:`wake_one` /
    :meth:`wake_all` when capacity frees up; each waiter callback receives
    the wake-up time.  The queue holds only the callbacks: it keeps no
    arrival times and no count of past waiters, so an owner that reports
    blocking (a cache's allocation stall cycles, a DRAM bank's queue-full
    stalls) records the block itself, in the callback it registers.
    """

    __slots__ = ("_waiters",)

    def __init__(self) -> None:
        self._waiters: deque[Callable[[int], None]] = deque()

    def __len__(self) -> int:
        return len(self._waiters)

    def __bool__(self) -> bool:
        return bool(self._waiters)

    def wait(self, resume: Callable[[int], None]) -> None:
        """Register ``resume`` to be called when capacity becomes available."""
        self._waiters.append(resume)

    def wake_one(self, now: int) -> bool:
        """Wake the oldest waiter.  Returns True if one was woken."""
        if not self._waiters:
            return False
        self._waiters.popleft()(now)
        return True

    def wake_all(self, now: int) -> int:
        """Wake every waiter in FIFO order.  Returns the number woken."""
        count = 0
        while self.wake_one(now):
            count += 1
        return count
