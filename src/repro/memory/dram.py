"""HBM-style DRAM timing model.

The model captures the properties the paper measures:

* per-bank open-row buffers -- an access to the open row is a *row hit*
  (cheap); an access to a closed bank is a *row miss*; an access to a bank
  with a different row open is a *row conflict* (precharge + activate).
* a per-channel data bus with finite bandwidth (one 64 B burst every
  ``burst_cycles`` cycles).
* per-bank queues with an FR-FCFS-style scheduler: among queued requests the
  bank prefers row hits, falling back to the oldest request, with a
  starvation cap so old requests are not deferred indefinitely.
* finite queue capacity -- when a bank queue is full, new arrivals wait,
  which provides natural back-pressure to the write-through store stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.config import DramConfig
from repro.engine import Simulator, ThroughputResource, WaitQueue
from repro.memory.address_mapping import AddressMapping
from repro.memory.request import MemoryRequest
from repro.stats import StatsCollector

__all__ = ["DramBank", "DramChannel", "DramSystem"]

#: maximum consecutive row-hit preferences before the oldest request is forced
FR_FCFS_STARVATION_LIMIT = 8


# eq=False: the scheduler removes the selected entry from its bank queue,
# and identity comparison keeps that removal in C instead of a generated
# field-by-field __eq__ per entry it scans past
@dataclass(slots=True, eq=False)
class _QueuedAccess:
    request: MemoryRequest
    row: int
    on_done: Callable[[MemoryRequest], None]


class DramBank:
    """One DRAM bank: an open-row register, a queue and a scheduler."""

    def __init__(
        self,
        name: str,
        config: DramConfig,
        sim: Simulator,
        stats: StatsCollector,
        data_bus: ThroughputResource,
    ) -> None:
        self.name = name
        self.config = config
        self.sim = sim
        self.stats = stats
        self.data_bus = data_bus
        self.open_row: Optional[int] = None
        self.queue: deque[_QueuedAccess] = deque()
        self.busy = False
        self._hits_in_a_row = 0
        self.full_waiters = WaitQueue()
        # pre-bound handles: the counters are global ("dram.*"), so every
        # bank shares the same cells and they aggregate exactly as before
        counter = stats.counter
        self._c_enqueued = counter("dram.enqueued")
        self._c_row_hits = counter("dram.row_hits")
        self._c_row_misses = counter("dram.row_misses")
        self._c_row_conflicts = counter("dram.row_conflicts")
        self._c_reads = counter("dram.reads")
        self._c_writes = counter("dram.writes")
        self._c_accesses = counter("dram.accesses")
        queue = sim.queue
        self._queue = queue
        self._at = queue.at

    def enqueue(
        self, request: MemoryRequest, row: int, on_done: Callable[[MemoryRequest], None]
    ) -> None:
        """Add an access to the bank queue and kick the scheduler."""
        self.queue.append(_QueuedAccess(request, row, on_done))
        self._c_enqueued.value += 1
        if not self.busy:
            self._schedule_service()

    def _schedule_service(self) -> None:
        if self.busy or not self.queue:
            return
        self.busy = True
        self._at[self._queue.now].append(self._service_next)

    def _select(self) -> _QueuedAccess:
        """FR-FCFS: prefer a row hit unless the oldest request is starving."""
        oldest = self.queue[0]
        if self.open_row is None:
            return oldest
        if self._hits_in_a_row >= FR_FCFS_STARVATION_LIMIT:
            self._hits_in_a_row = 0
            return oldest
        for access in self.queue:
            if access.row == self.open_row:
                return access
        return oldest

    def _service_next(self) -> None:
        if not self.queue:
            self.busy = False
            return
        access = self._select()
        if access is self.queue[0]:
            self.queue.popleft()
        else:
            self.queue.remove(access)
        now = self._queue.now

        if self.open_row is None:
            latency = self.config.row_miss_cycles
            self._c_row_misses.value += 1
            self._hits_in_a_row = 0
        elif self.open_row == access.row:
            latency = self.config.row_hit_cycles
            self._c_row_hits.value += 1
            self._hits_in_a_row += 1
        else:
            latency = self.config.row_conflict_cycles
            self._c_row_conflicts.value += 1
            self._hits_in_a_row = 0
        self.open_row = access.row

        if access.request.is_load:
            self._c_reads.value += 1
        else:
            self._c_writes.value += 1
        self._c_accesses.value += 1

        # the data transfer occupies the shared channel bus after the array access
        bus_start = self.data_bus.grant(now + latency)
        finish = bus_start + self.config.burst_cycles
        self._at[finish].append(partial(self._done, access))

    def _done(self, access: _QueuedAccess) -> None:
        access.on_done(access.request)
        # space freed in the queue: wake a blocked producer, then continue
        self.full_waiters.wake_one(self._queue.now)
        self._service_next()

    def pending(self) -> int:
        return len(self.queue) + (1 if self.busy else 0)


class DramChannel:
    """A channel: a set of banks sharing one data bus."""

    def __init__(
        self,
        channel_id: int,
        config: DramConfig,
        sim: Simulator,
        stats: StatsCollector,
    ) -> None:
        self.config = config
        self.sim = sim
        self.stats = stats
        self._queue = sim.queue
        self._c_queue_full_stalls = stats.counter("dram.queue_full_stalls")
        self._queue_depth = config.queue_depth
        self.data_bus = ThroughputResource(cycles_per_grant=config.burst_cycles)
        self.banks = [
            DramBank(f"dram.ch{channel_id}.bank{b}", config, sim, stats, self.data_bus)
            for b in range(config.banks_per_channel)
        ]

    def access(
        self,
        request: MemoryRequest,
        bank: int,
        row: int,
        on_done: Callable[[MemoryRequest], None],
        on_accepted: Optional[Callable[[], None]] = None,
    ) -> None:
        """Route an access to its bank, waiting if the bank queue is full.

        ``on_accepted`` (if given) fires when the request actually enters the
        bank queue; the write-through store path uses it to acknowledge
        stores, which gives the producer back-pressure when banks are full.
        """
        target = self.banks[bank]
        if len(target.queue) >= self._queue_depth:
            self._c_queue_full_stalls.value += 1
            target.full_waiters.wait(
                partial(self._retry, request, bank, row, on_done, on_accepted)
            )
            return
        if on_accepted is not None:
            on_accepted()
        target.enqueue(request, row, on_done)

    def _retry(
        self,
        request: MemoryRequest,
        bank: int,
        row: int,
        on_done: Callable[[MemoryRequest], None],
        on_accepted: Optional[Callable[[], None]],
        _wake_time: int,
    ) -> None:
        """A full bank queue freed a slot: route the access again."""
        self.access(request, bank, row, on_done, on_accepted)


class DramSystem:
    """All channels plus the address mapping."""

    def __init__(
        self,
        config: DramConfig,
        sim: Simulator,
        stats: StatsCollector,
        line_bytes: int = 64,
    ) -> None:
        self.config = config
        self.sim = sim
        self.stats = stats
        self.mapping = AddressMapping(config, line_bytes=line_bytes)
        self.channels = [DramChannel(c, config, sim, stats) for c in range(config.channels)]

    def access(
        self,
        request: MemoryRequest,
        on_done: Callable[[MemoryRequest], None],
        on_accepted: Optional[Callable[[], None]] = None,
    ) -> None:
        """Issue one line access; ``on_done`` fires when the burst completes."""
        channel, bank, row, _column = self.mapping.split(request.address)
        self.channels[channel].access(request, bank, row, on_done, on_accepted)

    def row_id(self, address: int) -> int:
        """Expose the row mapping for the dirty-block index."""
        return self.mapping.row_id(address)

    def pending(self) -> int:
        """Total requests queued or in flight (used by drain checks in tests)."""
        return sum(bank.pending() for ch in self.channels for bank in ch.banks)

    def row_hit_rate(self) -> float:
        """Fraction of DRAM accesses that hit an open row so far."""
        hits = self.stats.get("dram.row_hits")
        total = self.stats.get("dram.accesses")
        return hits / total if total else 0.0
