"""Links between hierarchy levels.

A :class:`Link` adds a fixed one-way latency and enforces a finite
request-per-cycle bandwidth.  Links connect the CUs to their L1s is implicit
(zero cycles); explicit links connect L1 -> L2, L2 -> directory and
directory -> DRAM.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.engine import Simulator, ThroughputResource
from repro.memory.request import MemoryRequest
from repro.stats import StatsCollector

__all__ = ["Link"]


class Link:
    """Fixed-latency, finite-bandwidth connection between two components."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        stats: StatsCollector,
        latency: int,
        requests_per_cycle: float = 1.0,
    ) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if requests_per_cycle <= 0:
            raise ValueError("requests_per_cycle must be positive")
        self.name = name
        self.sim = sim
        self.stats = stats
        self.latency = latency
        self.bandwidth = ThroughputResource(
            f"{name}.bw", cycles_per_grant=1.0 / requests_per_cycle
        )
        # per-send hot path: pre-bound counters and queue entry points
        self._c_transfers = stats.counter(f"link.{name}.transfers")
        self._c_contention_cycles = stats.counter(f"link.{name}.contention_cycles")
        self._queue = sim.queue
        self._schedule_at = sim.queue.schedule_at
        #: fault condition installed by the fault injector (a
        #: :class:`~repro.faults.injector.LinkFaultState`); ``None`` --
        #: every healthy run -- keeps the send path byte-identical
        self._fault = None

    def send(
        self,
        request: MemoryRequest,
        deliver: Callable[[MemoryRequest], None],
    ) -> None:
        """Deliver ``request`` to the far side after latency + any bandwidth wait."""
        now = self._queue.now
        latency = self.latency
        fault = self._fault
        if fault is not None:
            # outage: the send stalls until the link is back; degrade:
            # extra per-crossing latency (both counted by the fault state)
            now, latency = fault.apply(now, latency)
        grant = self.bandwidth.grant(now)
        self._c_transfers.add()
        wait = grant - now
        if wait > 0:
            self._c_contention_cycles.add(wait)
        self._schedule_at(grant + latency, partial(deliver, request))
