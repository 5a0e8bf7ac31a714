"""Links between hierarchy levels.

A :class:`Link` adds a fixed one-way latency and enforces a finite
request-per-cycle bandwidth.  A CU reaches its L1 directly (zero cycles).
The explicit links are ``l1_l2.cu<N>`` (each L1 to its L2), ``l2_dir``
(``l2_dir.dev<N>`` per device: the L2 to its directory) and, in
multi-device topologies, ``fabric.d<S>d<D>`` between devices.  The
directory reaches DRAM without a link: it adds the fixed
``dir_to_dram_cycles`` latency itself.

``send(target, request, on_done)`` carries the far side's handler with the
request: after the link's latency (plus any bandwidth wait) it calls
``target(request, on_done)``, scheduled as one positional ``partial`` in
the delivery cycle's bucket.  ``target`` is the next level's ``access``
(an L2 slice, a directory), or another link's ``send`` bound to its own
target for a multi-hop route, so no hop builds a closure.
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
        self.bandwidth = ThroughputResource(cycles_per_grant=1.0 / requests_per_cycle)
        # per-send hot path: pre-bound counters and queue entry points
        self._c_transfers = stats.counter(f"link.{name}.transfers")
        self._c_contention_cycles = stats.counter(f"link.{name}.contention_cycles")
        self._queue = sim.queue
        self._at = sim.queue.at

    def send(
        self,
        target: Callable[[MemoryRequest, Callable[[MemoryRequest], None]], None],
        request: MemoryRequest,
        on_done: Callable[[MemoryRequest], None],
    ) -> None:
        """Call ``target(request, on_done)`` on the far side after latency +
        any bandwidth wait: one delivery event at ``grant + latency``."""
        now = self._queue.now
        grant = self.bandwidth.grant(now)
        self._c_transfers.value += 1
        wait = grant - now
        if wait > 0:
            self._c_contention_cycles.value += wait
        self._at[grant + self.latency].append(partial(target, request, on_done))
