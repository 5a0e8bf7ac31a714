"""Miss-status holding registers (MSHRs).

An MSHR tracks an outstanding miss for one cache line and the list of
requests waiting for its fill.  The MSHR file has a fixed capacity; when it
is exhausted, further misses must stall at the cache input (a cache stall in
the paper's terminology) or, under the allocation-bypass optimization, be
converted into bypass requests.

The same structure is reused (with unlimited capacity) as the pending-bypass
coalescing table: the paper notes that when load caching is disabled,
"read requests to the same cache line may be coalesced while the original
bypass request is pending".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.memory.request import MemoryRequest

__all__ = ["MshrEntry", "MshrFile"]


@dataclass(slots=True)
class MshrEntry:
    """Bookkeeping for one outstanding line fill."""

    line_address: int
    primary: MemoryRequest
    allocate_way: Optional[int] = None
    issued_cycle: int = 0
    waiters: list[MemoryRequest] = field(default_factory=list)

    def add_waiter(self, request: MemoryRequest) -> None:
        self.waiters.append(request)

    @property
    def all_requests(self) -> list[MemoryRequest]:
        """Primary request plus every coalesced waiter."""
        return [self.primary, *self.waiters]


class MshrFile:
    """Fixed-capacity table of outstanding misses keyed by line address."""

    def __init__(self, capacity: Optional[int]) -> None:
        """Create an MSHR file.

        Args:
            capacity: maximum simultaneous outstanding lines; ``None`` means
                unlimited (used for the bypass-coalescing table).
        """
        if capacity is not None and capacity <= 0:
            raise ValueError("MSHR capacity must be positive or None")
        self.capacity = capacity
        self._entries: dict[int, MshrEntry] = {}
        self.peak_occupancy = 0
        self.total_allocations = 0
        self.total_coalesced = 0
        self.lookup = self._entries.get

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[MshrEntry]:
        return iter(self._entries.values())

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._entries) >= self.capacity

    #: ``lookup(line_address)`` returns the outstanding entry or ``None``;
    #: bound directly to ``dict.get`` in ``__init__`` (hot path)
    lookup: Callable[[int], Optional[MshrEntry]]

    def allocate(
        self,
        line_address: int,
        primary: MemoryRequest,
        cycle: int,
        allocate_way: Optional[int] = None,
    ) -> MshrEntry:
        """Allocate a new entry.  The caller must have checked :attr:`full`."""
        entries = self._entries
        if line_address in entries:
            raise RuntimeError(f"MSHR already allocated for line 0x{line_address:x}")
        occupancy = len(entries)
        if self.capacity is not None and occupancy >= self.capacity:
            raise RuntimeError("MSHR file is full")
        entry = MshrEntry(line_address, primary, allocate_way, cycle)
        entries[line_address] = entry
        self.total_allocations += 1
        if occupancy >= self.peak_occupancy:
            self.peak_occupancy = occupancy + 1
        return entry

    def coalesce(self, line_address: int, request: MemoryRequest) -> MshrEntry:
        """Attach ``request`` to the outstanding miss for its line."""
        entry = self._entries.get(line_address)
        if entry is None:
            raise KeyError(f"no outstanding miss for line 0x{line_address:x}")
        entry.add_waiter(request)
        self.total_coalesced += 1
        return entry

    def release(self, line_address: int) -> MshrEntry:
        """Remove and return the entry once its fill has completed."""
        entry = self._entries.pop(line_address, None)
        if entry is None:
            raise KeyError(f"no outstanding miss for line 0x{line_address:x}")
        return entry
