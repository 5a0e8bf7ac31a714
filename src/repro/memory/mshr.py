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

#: a response callback: called with the request once its data is back
ResponseFn = Callable[[MemoryRequest], None]


@dataclass(slots=True)
class MshrEntry:
    """Bookkeeping for one outstanding line fill.

    The entry holds only the requests and their response callbacks: the
    :class:`MshrFile` keys it by line address, and the fill that releases
    it is bound to its set and way when the miss is sent downstream.
    ``callbacks`` holds the response callback of the primary request and
    then of each waiter, in the order of :attr:`all_requests`, so a fill
    answers every request it carries without any per-request state.
    """

    primary: MemoryRequest
    waiters: list[MemoryRequest] = field(default_factory=list)
    callbacks: list[Optional[ResponseFn]] = field(default_factory=list)

    @property
    def all_requests(self) -> list[MemoryRequest]:
        """Primary request plus every coalesced waiter."""
        return [self.primary, *self.waiters]


class MshrFile:
    """Fixed-capacity table of outstanding misses keyed by line address.

    Besides the entries it keeps one statistic, :attr:`total_coalesced`,
    the number of requests merged into an outstanding miss.
    """

    def __init__(self, capacity: Optional[int]) -> None:
        """Create an MSHR file.

        Args:
            capacity: maximum simultaneous outstanding lines; ``None`` means
                unlimited (used for the bypass-coalescing table).
        """
        if capacity is not None and capacity <= 0:
            raise ValueError("MSHR capacity must be positive or None")
        self.capacity = capacity
        #: outstanding entries by line address.  Callers only read it: the
        #: caches' hot paths test ``len(entries) >= capacity`` inline
        #: instead of calling :attr:`full`
        self.entries: dict[int, MshrEntry] = {}
        self.total_coalesced = 0
        self.lookup = self.entries.get

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[MshrEntry]:
        return iter(self.entries.values())

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self.entries) >= self.capacity

    #: ``lookup(line_address)`` returns the outstanding entry or ``None``;
    #: bound directly to ``dict.get`` in ``__init__`` (hot path)
    lookup: Callable[[int], Optional[MshrEntry]]

    def allocate(
        self,
        line_address: int,
        primary: MemoryRequest,
        on_done: Optional[ResponseFn] = None,
    ) -> MshrEntry:
        """Allocate a new entry.  The caller must have checked :attr:`full`.

        ``on_done`` is the primary request's response callback; the entry
        keeps it first in :attr:`MshrEntry.callbacks`.
        """
        entries = self.entries
        if line_address in entries:
            raise RuntimeError(f"MSHR already allocated for line 0x{line_address:x}")
        if self.capacity is not None and len(entries) >= self.capacity:
            raise RuntimeError("MSHR file is full")
        entry = entries[line_address] = MshrEntry(primary, [], [on_done])
        return entry

    def coalesce(
        self,
        line_address: int,
        request: MemoryRequest,
        on_done: Optional[ResponseFn] = None,
    ) -> MshrEntry:
        """Attach ``request`` and its response callback to the outstanding
        miss for its line."""
        entry = self.entries.get(line_address)
        if entry is None:
            raise KeyError(f"no outstanding miss for line 0x{line_address:x}")
        entry.waiters.append(request)
        entry.callbacks.append(on_done)
        self.total_coalesced += 1
        return entry

    def release(self, line_address: int) -> MshrEntry:
        """Remove and return the entry once its fill has completed."""
        entry = self.entries.pop(line_address, None)
        if entry is None:
            raise KeyError(f"no outstanding miss for line 0x{line_address:x}")
        return entry
