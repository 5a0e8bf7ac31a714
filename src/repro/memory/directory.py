"""Host-side coherence directory interface.

In the simulated APU the GPU L2 interfaces with a conventional CPU coherence
fabric through a shared system directory (paper section III).  GPU requests
that miss (or bypass) the GPU caches are looked up in the directory before
being forwarded to the memory controllers.  The directory model here adds a
fixed lookup latency, a finite lookup bandwidth, and tracks coherence
traffic statistics; it does not model CPU sharers holding GPU data because
the MI workloads studied keep their working sets GPU-resident between
synchronization points (the CPU only touches data around kernel launches).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.engine import Simulator, ThroughputResource
from repro.memory.dram import DramSystem
from repro.memory.request import MemoryRequest
from repro.stats import StatsCollector

__all__ = ["Directory"]


class Directory:
    """System directory between the GPU L2 and the memory controllers."""

    #: directory tag lookup latency, GPU cycles
    LOOKUP_LATENCY = 15

    def __init__(
        self,
        sim: Simulator,
        stats: StatsCollector,
        dram: DramSystem,
        dram_latency: int,
        lookups_per_cycle: float = 4.0,
    ) -> None:
        self.sim = sim
        self.stats = stats
        self.dram = dram
        self.dram_latency = dram_latency
        self.port = ThroughputResource("directory.port", cycles_per_grant=1.0 / lookups_per_cycle)
        self._c_lookups = stats.counter("directory.lookups")
        self._c_read_requests = stats.counter("directory.read_requests")
        self._c_write_requests = stats.counter("directory.write_requests")
        self._queue = sim.queue
        self._schedule_at = sim.queue.schedule_at

    def access(self, request: MemoryRequest, on_done: Callable[[MemoryRequest], None]) -> None:
        """Look up the line and forward the access to DRAM.

        Loads complete (``on_done``) when DRAM returns the line.  Stores are
        acknowledged to the requester once they have been accepted by the
        target DRAM bank queue -- the write itself still occupies DRAM
        bandwidth, which is how the write-through policies pressure memory.
        """
        now = self._queue.now
        grant = self.port.grant(now)
        self._c_lookups.add()
        if request.is_load:
            self._c_read_requests.add()
            forward = partial(self.dram.access, request, on_done)
        else:
            # acknowledge the store when the DRAM bank queue accepts it;
            # the write itself still consumes DRAM bandwidth afterwards
            forward = partial(
                self.dram.access, request, _ignore_response, partial(on_done, request)
            )
            self._c_write_requests.add()
        self._schedule_at(grant + self.LOOKUP_LATENCY + self.dram_latency, forward)


def _ignore_response(_request: MemoryRequest) -> None:
    """Completion sink for acknowledged stores."""
