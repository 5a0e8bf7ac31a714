"""Set-associative GPU cache with MSHRs and blocking allocation.

The same class models both the per-CU write-through L1 data caches and the
shared GPU L2.  The behaviours the paper's results hinge on are all modelled
explicitly:

* **Blocking allocation** -- a miss needs a victim way that is not busy
  (pending fill) and a free MSHR.  When neither is available the request is
  blocked at the cache input and every blocked cycle is counted as a *cache
  stall* (paper section VI.C.1).
* **Allocation bypass** -- with the optimization of section VII.A enabled,
  a request that would block is instead converted into a bypass request and
  forwarded downstream without allocating.
* **Bypass coalescing** -- bypassed loads to the same line are merged while
  the original bypass request is outstanding (paper section III).
* **Write combining (CacheRW)** -- stores allocate dirty lines without
  fetching and later stores to the same line coalesce; dirty data is written
  back on eviction or when :meth:`flush_dirty` is called at a system-scope
  synchronization point.
* **Self-invalidation** -- :meth:`invalidate_clean` drops all valid clean
  lines at kernel boundaries (GPU release/acquire semantics).
* **Cache rinsing (DBI)** -- when a dirty line is evicted and a
  :class:`~repro.core.dirty_block_index.DirtyBlockIndex` is attached, all
  other dirty lines mapping to the same DRAM row are written back with it
  (paper section VII.B).
* **PC-based bypassing** -- when a reuse predictor is attached, loads and
  stores whose PC is predicted dead bypass the cache; a subset of sampler
  sets always caches so the predictor keeps learning (paper section VII.C).

Implementation notes for the hot path: tag lookup is indexed (each set
keeps a ``tag -> way`` dict maintained on fill/evict/invalidate, so lookups
never scan ways linearly).  The replacement policy is told every way
transition (fill, hit, pending, invalidate) and picks the victim from its
own per-way stamps with one ``min``, so a miss never scans the ways either.
A miss's response callbacks ride in its MSHR entry next to the requests
they answer.  All statistics are pre-bound
:class:`~repro.stats.counters.Counter` handles resolved once in
``__init__`` and bumped by value.  Every event is scheduled as one append
to its cycle's bucket in the shared queue's
:attr:`~repro.engine.event_queue.EventQueue.at` map (``at[grant]``,
``at[now + latency]``), with no ``schedule`` call in between.  Scheduled
callbacks are positional ``functools.partial`` objects over the target
method -- never lambdas, closures or keyword partials -- so firing an event
runs one Python frame instead of two, and responses nobody waits on
(write-through forwards, writebacks) share one module-level sink;
``tests/unit/test_hot_path_lint.py`` keeps it that way.  MSHR-full checks
read the file's entry count inline (capacity never changes at run time).  Requests blocked on a full
MSHR file poll as slotted :class:`_MshrPoller` objects, and the polls that
sit next to each other in one cycle's bucket fire as one
:class:`_PollGroup` event: a poll that fails again costs a length test, and
a group whose files are all still full moves to its next bucket as one
append.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.config import CacheConfig
from repro.engine import EventQueue, Simulator, ThroughputResource, WaitQueue
from repro.memory.mshr import MshrFile
from repro.memory.replacement import LruReplacement
from repro.memory.request import AccessType, MemoryRequest
from repro.stats import StatsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.adaptive.set_dueling import SetDuelingMonitor
    from repro.core.dirty_block_index import DirtyBlockIndex
    from repro.core.reuse_predictor import ReusePredictor

__all__ = ["Cache", "CacheLine", "LineState"]

#: latency of the pass-through path used by bypassed requests (cycles)
BYPASS_LATENCY = 5


class LineState(enum.Enum):
    """State of one cache line."""

    INVALID = "invalid"
    VALID = "valid"
    DIRTY = "dirty"
    PENDING = "pending"


_INVALID = LineState.INVALID
_VALID = LineState.VALID
_DIRTY = LineState.DIRTY
_PENDING = LineState.PENDING
_STORE = AccessType.STORE


def _discard_response(_request: MemoryRequest) -> None:
    """Response sink for traffic nobody waits on (write-through forwards,
    eviction and rinse writebacks)."""


class CacheLine:
    """One way of one set.

    ``stream_id`` records which execution stream (tenant) allocated the
    line, so kernel-boundary synchronization can walk only the finishing
    stream's lines.  Outside multi-stream serving runs every request --
    and therefore every line -- carries stream 0.
    """

    __slots__ = ("state", "tag", "inserted_pc", "reused", "stream_id")

    def __init__(
        self,
        state: LineState = _INVALID,
        tag: int = -1,
        inserted_pc: int = 0,
        reused: bool = False,
        stream_id: int = 0,
    ) -> None:
        self.state = state
        self.tag = tag
        self.inserted_pc = inserted_pc
        self.reused = reused
        self.stream_id = stream_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheLine({self.state.value}, tag=0x{self.tag:x})"


DownstreamFn = Callable[[MemoryRequest, Callable[[MemoryRequest], None]], None]


class Cache:
    """Timing model of one GPU cache level.

    Args:
        name: human-readable identifier (e.g. ``"l1.cu3"`` or ``"l2"``).
        config: geometry and latency parameters.
        sim: shared simulator (event queue).
        stats: shared counter store; counters are prefixed with
            ``stat_prefix``.
        downstream: function used to forward misses, bypasses and writebacks
            to the next level.  It receives the request and a response
            callback.
        stat_prefix: namespace for this cache's counters (``"l1"``/``"l2"``),
            so per-CU L1s aggregate naturally.
        allocation_bypass: enable the section VII.A optimization.
        reuse_predictor: optional PC-based reuse predictor (section VII.C).
        dirty_block_index: optional DBI used for cache rinsing (VII.B); its
            ``row_of`` maps a line address to its DRAM row.

    Replacement is LRU; an ablation may swap :attr:`replacement` for
    another policy before the first access.
    """

    #: blocked-on-MSHR requests poll for a free entry on this period; the
    #: added latency is negligible next to memory latency under load and
    #: the polling model cannot lose wake-ups.  One period for every
    #: cache: a poll group moves all its members, whichever cache they
    #: block on, by this much.
    _mshr_retry_period = 64

    def __init__(
        self,
        name: str,
        config: CacheConfig,
        sim: Simulator,
        stats: StatsCollector,
        downstream: DownstreamFn,
        stat_prefix: str,
        allocation_bypass: bool = False,
        reuse_predictor: Optional["ReusePredictor"] = None,
        dirty_block_index: Optional["DirtyBlockIndex"] = None,
    ) -> None:
        self.name = name
        self.config = config
        self.sim = sim
        self.stats = stats
        self.downstream = downstream
        self.allocation_bypass = allocation_bypass
        self.reuse_predictor = reuse_predictor
        self.dbi = dirty_block_index

        self.sets: list[list[CacheLine]] = [
            [CacheLine() for _ in range(config.assoc)] for _ in range(config.num_sets)
        ]
        #: per-set tag -> way index, maintained on fill/evict/invalidate so
        #: lookups are one dict probe instead of a scan over the ways
        self._tag_to_way: list[dict[int, int]] = [{} for _ in range(config.num_sets)]
        #: indices of the sets that may hold dirty lines (a superset: every
        #: transition to DIRTY adds its set, a flush prunes), so a flush
        #: visits those sets instead of every line of the cache
        self._dirty_sets: set[int] = set()
        self.replacement = LruReplacement(config.num_sets, config.assoc)
        self.mshrs = MshrFile(config.mshrs)
        self._mshr_entries = self.mshrs.entries
        self._mshr_capacity = self.mshrs.capacity
        self.bypass_pending = MshrFile(capacity=None)
        #: optional set-dueling observer (attached to the L2 by adaptive
        #: sessions); when None -- every static run -- the hooks cost one
        #: attribute test per lookup and record nothing
        self.set_monitor: Optional["SetDuelingMonitor"] = None
        self.port = ThroughputResource(cycles_per_grant=1.0 / config.ports)
        self._set_waiters: dict[int, WaitQueue] = {}
        # sampler sets always cache so the reuse predictor keeps training
        self._sampler_stride = 16

        # geometry constants and event-queue entry points, resolved once
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._hit_latency = config.hit_latency
        queue = sim.queue
        self._queue = queue
        self._at = queue.at

        # pre-bound counter handles: no per-access f-strings or dict hashing
        counter = stats.counter
        prefix = stat_prefix
        self._c_accesses = counter(f"{prefix}.accesses")
        self._c_hits = counter(f"{prefix}.hits")
        self._c_misses = counter(f"{prefix}.misses")
        self._c_fills = counter(f"{prefix}.fills")
        self._c_stall_cycles = counter(f"{prefix}.stall_cycles")
        self._c_stall_cycles_port = counter(f"{prefix}.stall_cycles_port")
        self._c_stall_cycles_alloc = counter(f"{prefix}.stall_cycles_alloc")
        self._c_blocked_set_busy = counter(f"{prefix}.blocked_set_busy")
        self._c_blocked_mshr_full = counter(f"{prefix}.blocked_mshr_full")
        self._c_mshr_coalesced = counter(f"{prefix}.mshr_coalesced")
        self._c_store_coalesced_on_miss = counter(f"{prefix}.store_coalesced_on_miss")
        self._c_store_hits = counter(f"{prefix}.store_hits")
        self._c_store_allocates = counter(f"{prefix}.store_allocates")
        self._c_writethrough_stores = counter(f"{prefix}.writethrough_stores")
        self._c_self_invalidations = counter(f"{prefix}.self_invalidations")
        self._c_flush_writebacks = counter(f"{prefix}.flush_writebacks")
        self._c_eviction_writebacks = counter(f"{prefix}.eviction_writebacks")
        self._c_clean_evictions = counter(f"{prefix}.clean_evictions")
        self._c_rinse_writebacks = counter(f"{prefix}.rinse_writebacks")
        self._c_writebacks = counter(f"{prefix}.writebacks")
        self._c_bypasses = counter(f"{prefix}.bypasses")
        self._c_bypass_coalesced = counter(f"{prefix}.bypass_coalesced")
        self._c_allocation_bypasses = counter(f"{prefix}.allocation_bypasses")
        self._c_predictor_bypasses = counter(f"{prefix}.predictor_bypasses")
        self._is_l1 = stat_prefix.startswith("l1")

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    def access(self, request: MemoryRequest, on_done: Callable[[MemoryRequest], None]) -> None:
        """Handle ``request`` arriving at this cache at the current cycle."""
        self._c_accesses.value += 1
        if (request.bypass_l1 if self._is_l1 else request.bypass_l2) or (
            self.reuse_predictor is not None and self._predicted_dead(request)
        ):
            self._bypass_access(request, on_done)
            return
        now = self._queue.now
        grant = self.port.grant(now)
        wait = grant - now
        if wait > 0:
            self._c_stall_cycles_port.value += wait
            self._c_stall_cycles.value += wait
        self._at[grant].append(partial(self._lookup, request, on_done, True))

    def invalidate_clean(self, stream_id: Optional[int] = None) -> int:
        """Self-invalidate valid (clean) lines; returns the count dropped.

        Dirty lines are left in place -- they are handled by
        :meth:`flush_dirty` at release synchronization points.

        Args:
            stream_id: when given, only lines allocated by that execution
                stream are invalidated (stream-scoped acquire at a
                multi-tenant kernel boundary); ``None`` -- every
                single-stream run -- drops all valid lines.
        """
        dropped = 0
        replacement = self.replacement
        for set_index, (ways, tag_map) in enumerate(zip(self.sets, self._tag_to_way)):
            for way, line in enumerate(ways):
                if line.state is _VALID and (
                    stream_id is None or line.stream_id == stream_id
                ):
                    self._notify_eviction(line)
                    line.state = _INVALID
                    tag_map.pop(line.tag, None)
                    line.tag = -1
                    replacement.on_invalidate(set_index, way)
                    dropped += 1
        self._c_self_invalidations.add(dropped)
        return dropped

    def flush_dirty(
        self,
        on_complete: Callable[[], None],
        stream_id: Optional[int] = None,
    ) -> int:
        """Write back dirty lines, then invoke ``on_complete``.

        Returns the number of writebacks issued.  With a dirty-block index
        attached the flush walks DRAM rows (row-ordered writebacks); without
        one it walks sets in index order, which is what a hardware flush
        engine does and which produces the row-locality disruption discussed
        in section VI.C.2.

        The flushed lines stay valid (clean) in the cache, as a release
        flush leaves them.

        Args:
            stream_id: when given, only lines allocated by that execution
                stream are flushed (stream-scoped release at a multi-tenant
                kernel boundary); ``None`` flushes every dirty line.
        """
        dirty: list[tuple[int, int]] = []  # (set_index, way)
        other_streams: set[int] = set()  # sets left holding another stream's dirt
        sets = self.sets
        for set_index in sorted(self._dirty_sets):
            for way, line in enumerate(sets[set_index]):
                if line.state is _DIRTY:
                    if stream_id is None or line.stream_id == stream_id:
                        dirty.append((set_index, way))
                    else:
                        other_streams.add(set_index)
        self._dirty_sets = other_streams
        if not dirty:
            self._queue.schedule(0, on_complete)
            return 0
        if self.dbi is not None:
            dirty.sort(key=lambda sw: self.dbi.row_of(self._line_address(*sw)))
        outstanding = len(dirty)

        def writeback_done(_req: MemoryRequest) -> None:
            nonlocal outstanding
            outstanding -= 1
            if outstanding == 0:
                on_complete()

        for set_index, way in dirty:
            line = self.sets[set_index][way]
            address = self._line_address(set_index, way)
            line.state = _VALID
            if self.dbi is not None:
                self.dbi.clear(address)
            self._send_writeback(address, writeback_done)
        self._c_flush_writebacks.add(len(dirty))
        return len(dirty)

    def contents(self) -> dict[int, LineState]:
        """Snapshot of line states keyed by line address (for tests)."""
        result: dict[int, LineState] = {}
        for set_index, ways in enumerate(self.sets):
            for way, line in enumerate(ways):
                if line.state is not _INVALID and line.tag >= 0:
                    result[self._line_address(set_index, way)] = line.state
        return result

    def dirty_line_count(self) -> int:
        """Number of dirty lines currently held."""
        return sum(1 for ways in self.sets for line in ways if line.state is _DIRTY)

    # ------------------------------------------------------------------
    # lookup path
    # ------------------------------------------------------------------
    def _predicted_dead(self, request: MemoryRequest) -> bool:
        """Whether the reuse predictor sends this request around the cache.

        Only consulted when a predictor is attached and the policy flags
        did not already bypass this level; sampler sets always cache.
        """
        if self._is_sampler_set(request):
            return False
        if self.reuse_predictor.should_bypass(request.pc):
            self._c_predictor_bypasses.value += 1
            return True
        return False

    def _is_sampler_set(self, request: MemoryRequest) -> bool:
        set_index = (request.address // self._line_bytes) % self._num_sets
        return set_index % self._sampler_stride == 0

    def _lookup(
        self,
        request: MemoryRequest,
        on_done: Callable[[MemoryRequest], None],
        first_attempt: bool,
    ) -> None:
        address = request.address
        line_address = address - (address % self._line_bytes)
        set_index = (address // self._line_bytes) % self._num_sets

        # hit?  (the tag map also holds PENDING lines, which do not hit)
        way = self._tag_to_way[set_index].get(line_address)
        if way is not None:
            line = self.sets[set_index][way]
            state = line.state
            if state is _VALID or state is _DIRTY:
                self._on_hit(request, set_index, way, on_done)
                return

        # outstanding miss for the same line?
        mshrs = self.mshrs
        if line_address in mshrs.entries:
            mshrs.coalesce(line_address, request, on_done)
            if request.is_store and self.config.writeback:
                # the store's data will be merged when the fill returns
                self._c_store_coalesced_on_miss.value += 1
            self._c_mshr_coalesced.value += 1
            return

        # miss: need an MSHR (loads) and a victim way
        if first_attempt:
            self._c_misses.value += 1
            if self.set_monitor is not None:
                self.set_monitor.record_miss(set_index, request.is_store)
        if request.is_store and self.config.writeback:
            self._store_allocate(request, set_index, line_address, on_done)
            return
        self._load_miss(request, set_index, line_address, on_done)

    def _on_hit(
        self,
        request: MemoryRequest,
        set_index: int,
        way: int,
        on_done: Callable[[MemoryRequest], None],
    ) -> None:
        line = self.sets[set_index][way]
        line.reused = True
        if self.reuse_predictor is not None:
            self.reuse_predictor.train_reuse(line.inserted_pc)
            self.reuse_predictor.train_reuse(request.pc)
        self.replacement.on_access(set_index, way, self._queue.now)
        self._c_hits.value += 1
        if request.is_store:
            if self.config.writeback:
                line.state = _DIRTY
                self._dirty_sets.add(set_index)
                # the dirty data belongs to the storing stream: its own
                # release (kernel boundary) must write it back
                line.stream_id = request.stream_id
                if self.dbi is not None:
                    self.dbi.mark_dirty(self._line_address(set_index, way))
                self._c_store_hits.value += 1
            else:
                # write-through cache: update and forward the write downstream
                self._c_writethrough_stores.value += 1
                bucket = self._at[self._queue.now + self._hit_latency]
                bucket.append(partial(self.downstream, request, _discard_response))
                bucket.append(partial(on_done, request))
                return
        self._at[self._queue.now + self._hit_latency].append(partial(on_done, request))

    def _load_miss(
        self,
        request: MemoryRequest,
        set_index: int,
        line_address: int,
        on_done: Callable[[MemoryRequest], None],
    ) -> None:
        victim_way = self.replacement.victim(set_index)
        blocked_reason = None
        if victim_way is None:
            blocked_reason = "set_busy"
        elif len(self._mshr_entries) >= self._mshr_capacity:
            blocked_reason = "mshr_full"

        if blocked_reason is not None:
            if self.allocation_bypass:
                self._c_allocation_bypasses.value += 1
                self._bypass_access(request, on_done)
                return
            self._block(request, set_index, blocked_reason, on_done)
            return

        self._evict(set_index, victim_way)
        victim = self.sets[set_index][victim_way]
        victim.state = _PENDING
        victim.tag = line_address
        victim.inserted_pc = request.pc
        victim.reused = False
        victim.stream_id = request.stream_id
        self._tag_to_way[set_index][line_address] = victim_way
        self.replacement.on_pending(set_index, victim_way)
        self.mshrs.allocate(line_address, request, on_done)

        self._at[self._queue.now + self._hit_latency].append(
            partial(
                self.downstream,
                request,
                partial(self._fill, line_address, set_index, victim_way),
            )
        )

    def _store_allocate(
        self,
        request: MemoryRequest,
        set_index: int,
        line_address: int,
        on_done: Callable[[MemoryRequest], None],
    ) -> None:
        """Write-combining store miss: allocate a dirty line without fetching."""
        victim_way = self.replacement.victim(set_index)
        if victim_way is None:
            if self.allocation_bypass:
                self._c_allocation_bypasses.value += 1
                self._bypass_access(request, on_done)
                return
            self._block(request, set_index, "set_busy", on_done)
            return
        self._evict(set_index, victim_way)
        line = self.sets[set_index][victim_way]
        line.state = _DIRTY
        self._dirty_sets.add(set_index)
        line.tag = line_address
        line.inserted_pc = request.pc
        line.reused = False
        line.stream_id = request.stream_id
        self._tag_to_way[set_index][line_address] = victim_way
        self.replacement.on_fill(set_index, victim_way, self._queue.now)
        if self.dbi is not None:
            self.dbi.mark_dirty(line_address)
        self._c_store_allocates.value += 1
        self._at[self._queue.now + self._hit_latency].append(partial(on_done, request))

    # ------------------------------------------------------------------
    # blocking / waking
    # ------------------------------------------------------------------
    def _block(
        self,
        request: MemoryRequest,
        set_index: int,
        reason: str,
        on_done: Callable[[MemoryRequest], None],
    ) -> None:
        """Park a request that cannot allocate; it retries when unblocked.

        Set-busy blocking uses precise per-set wake-ups (every way of the set
        holds a pending fill, and each completing fill wakes the waiters).
        MSHR exhaustion uses periodic polling instead: a fill releasing an
        MSHR does not guarantee that the woken request can use it (it may hit
        or coalesce on retry), so event-driven wake-ups can strand waiters;
        polling cannot.  The request polls every
        :attr:`_mshr_retry_period` cycles until its file has a free entry.

        Polls that sit next to each other in one cycle's bucket fire as one
        :class:`_PollGroup` event.  That grouping is host-side only: every
        poll keeps the bucket slot it would hold as its own event, and still
        counts as one executed event, so timing and counters are unchanged.
        """
        blocked_at = self._queue.now
        if reason == "mshr_full":
            self._c_blocked_mshr_full.value += 1
            _park(
                self._queue,
                blocked_at + self._mshr_retry_period,
                _MshrPoller(self, request, on_done, set_index, blocked_at),
            )
            return
        self._c_blocked_set_busy.value += 1

        def resume(wake_time: int) -> None:
            stall = wake_time - blocked_at
            if stall > 0:
                self._c_stall_cycles_alloc.value += stall
                self._c_stall_cycles.value += stall
                if self.set_monitor is not None:
                    self.set_monitor.record_stall(set_index, stall)
            grant = self.port.grant(wake_time)
            self._at[grant].append(partial(self._lookup, request, on_done, False))

        self._set_wait_queue(set_index).wait(resume)

    def _set_wait_queue(self, set_index: int) -> WaitQueue:
        queue = self._set_waiters.get(set_index)
        if queue is None:
            queue = WaitQueue()
            self._set_waiters[set_index] = queue
        return queue

    def _wake_after_fill(self, set_index: int) -> None:
        queue = self._set_waiters.get(set_index)
        if queue:
            queue.wake_all(self._queue.now)

    # ------------------------------------------------------------------
    # fills, evictions, writebacks
    # ------------------------------------------------------------------
    def _fill(
        self,
        line_address: int,
        set_index: int,
        way: int,
        _response: Optional[MemoryRequest] = None,
    ) -> None:
        """Downstream response arrived: install the line, answer waiters.

        Bound with ``partial`` as the downstream response callback, so the
        response request arrives as the (unused) last argument.
        """
        now = self._queue.now
        entry = self.mshrs.release(line_address)
        line = self.sets[set_index][way]
        requests = (entry.primary, *entry.waiters)
        # a store coalesced from another stream dirties the line on its
        # behalf: the release duty follows the (first) storing stream
        storer = None
        if self.config.writeback:
            for req in requests:
                if req.is_store:
                    storer = req
                    break
        if storer is not None:
            line.state = _DIRTY
            self._dirty_sets.add(set_index)
            line.stream_id = storer.stream_id
        else:
            line.state = _VALID
        line.tag = line_address
        self.replacement.on_fill(set_index, way, now)
        if line.state is _DIRTY and self.dbi is not None:
            self.dbi.mark_dirty(line_address)
        if len(requests) > 1:
            line.reused = True
            if self.reuse_predictor is not None:
                self.reuse_predictor.train_reuse(line.inserted_pc)
        self._c_fills.value += 1
        append = self._at[now].append
        for req, callback in zip(requests, entry.callbacks):
            append(partial(callback, req))
        self._wake_after_fill(set_index)

    def _evict(self, set_index: int, way: int) -> None:
        """Evict the current occupant of ``way`` (issuing writebacks as needed)."""
        line = self.sets[set_index][way]
        if line.state is _INVALID:
            return
        address = self._line_address(set_index, way)
        self._notify_eviction(line)
        if line.state is _DIRTY:
            self._c_eviction_writebacks.value += 1
            if self.dbi is not None:
                self._rinse_row(address)
            else:
                self._send_writeback(address, _discard_response)
        else:
            self._c_clean_evictions.value += 1
        line.state = _INVALID
        self._tag_to_way[set_index].pop(line.tag, None)
        line.tag = -1
        self.replacement.on_invalidate(set_index, way)

    def _rinse_row(self, evicted_address: int) -> None:
        """Write back the evicted dirty line plus all dirty lines in its DRAM row."""
        row = self.dbi.row_of(evicted_address)
        victims = [evicted_address]
        for address in self.dbi.dirty_lines_in_row(row):
            if address != evicted_address:
                victims.append(address)
        self.dbi.clear(evicted_address)
        for address in victims[1:]:
            located = self._locate(address)
            if located is None:
                self.dbi.clear(address)
                continue
            set_index, way = located
            line = self.sets[set_index][way]
            if line.state is not _DIRTY:
                self.dbi.clear(address)
                continue
            line.state = _VALID  # data stays, now clean
            self.dbi.clear(address)
            self._c_rinse_writebacks.value += 1
            self._send_writeback(address, _discard_response)
        self._send_writeback(evicted_address, _discard_response)

    def _locate(self, line_address: int) -> Optional[tuple[int, int]]:
        set_index = (line_address // self._line_bytes) % self._num_sets
        way = self._tag_to_way[set_index].get(line_address)
        if way is None:
            return None
        state = self.sets[set_index][way].state
        if state is _VALID or state is _DIRTY:
            return set_index, way
        return None

    def _send_writeback(self, address: int, on_done: Callable[[MemoryRequest], None]) -> None:
        writeback = MemoryRequest(_STORE, address, 0, 0, self._queue.now, True, True)
        self._c_writebacks.value += 1
        self.downstream(writeback, on_done)

    def _notify_eviction(self, line: CacheLine) -> None:
        if self.reuse_predictor is not None and line.state is not _INVALID:
            self.reuse_predictor.train_eviction(line.inserted_pc, line.reused)

    # ------------------------------------------------------------------
    # bypass path
    # ------------------------------------------------------------------
    def _bypass_access(
        self, request: MemoryRequest, on_done: Callable[[MemoryRequest], None]
    ) -> None:
        """Forward without allocation, coalescing pending bypassed loads."""
        self._c_bypasses.value += 1
        address = request.address
        line_address = address - (address % self._line_bytes)
        if request.is_load:
            pending = self.bypass_pending.lookup(line_address)
            if pending is not None:
                self.bypass_pending.coalesce(line_address, request, on_done)
                self._c_bypass_coalesced.value += 1
                return
            if self.set_monitor is not None:
                # only traffic-initiating bypasses score (coalesced riders
                # are free, matching the MSHR-coalesced case on the cached
                # side which is likewise not recorded)
                self.set_monitor.record_bypass(
                    (address // self._line_bytes) % self._num_sets, False
                )
            self.bypass_pending.allocate(line_address, request, on_done)
            self._at[self._queue.now + BYPASS_LATENCY].append(
                partial(self.downstream, request, partial(self._bypass_fill, line_address))
            )
            return
        # bypassed store: fire and forward; completion when downstream accepts
        if self.set_monitor is not None:
            self.set_monitor.record_bypass(
                (address // self._line_bytes) % self._num_sets, True
            )
        self._at[self._queue.now + BYPASS_LATENCY].append(
            partial(self.downstream, request, on_done)
        )

    def _bypass_fill(
        self, line_address: int, _response: Optional[MemoryRequest] = None
    ) -> None:
        entry = self.bypass_pending.release(line_address)
        append = self._at[self._queue.now].append
        for req, callback in zip(entry.all_requests, entry.callbacks):
            append(partial(callback, req))

    # ------------------------------------------------------------------
    def _line_address(self, set_index: int, way: int) -> int:
        return self.sets[set_index][way].tag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cache({self.name}, {self.config.size_bytes // 1024} KB)"


class _MshrPoller:
    """A request blocked on a full MSHR file, polling for a free entry."""

    __slots__ = (
        "cache",
        "request",
        "on_done",
        "set_index",
        "blocked_at",
        "entries",
        "capacity",
    )

    def __init__(
        self,
        cache: Cache,
        request: MemoryRequest,
        on_done: Callable[[MemoryRequest], None],
        set_index: int,
        blocked_at: int,
    ) -> None:
        self.cache = cache
        self.request = request
        self.on_done = on_done
        self.set_index = set_index
        self.blocked_at = blocked_at
        self.entries = cache._mshr_entries
        self.capacity = cache._mshr_capacity

    def wake(self, now: int) -> None:
        """The poll at ``now`` found a free entry: charge the stall and
        retry the lookup at the cache's next port grant."""
        cache = self.cache
        # a poll fires at least one period after the request blocked
        stall = now - self.blocked_at
        cache._c_stall_cycles_alloc.value += stall
        cache._c_stall_cycles.value += stall
        if cache.set_monitor is not None:
            cache.set_monitor.record_stall(self.set_index, stall)
        cache._at[cache.port.grant(now)].append(
            partial(cache._lookup, self.request, self.on_done, False)
        )


class _PollGroup:
    """MSHR polls that sat next to each other in one cycle's bucket.

    Firing the group fires its polls in order, each as it would fire as its
    own event, and credits the queue with one executed event per poll.  A
    poll's only side effect besides a wake-up is re-parking itself one
    period later, and :func:`_park` puts each re-parked poll in the bucket
    slot a plain append would give it, so grouping changes no result.
    """

    __slots__ = ("queue", "pollers")

    def __init__(self, queue: EventQueue, poller: _MshrPoller) -> None:
        self.queue = queue
        self.pollers = [poller]

    def __call__(self) -> None:
        queue = self.queue
        pollers = self.pollers
        queue.credit(len(pollers) - 1)
        for poller in pollers:
            if len(poller.entries) < poller.capacity:
                break
        else:
            # every file is still full, so each poll would re-park in turn,
            # one after the other: the group moves as one
            bucket = queue.at[queue.now + Cache._mshr_retry_period]
            if bucket and bucket[-1].__class__ is _PollGroup:
                bucket[-1].pollers += pollers
            else:
                bucket.append(self)
            return
        # a wake-up changes no MSHR file, so each poll's test is the one it
        # would make firing alone; a wake-up may end the next bucket's tail
        # group (its port grant can land there), so each re-park looks again
        now = queue.now
        due = now + Cache._mshr_retry_period
        for poller in pollers:
            if len(poller.entries) >= poller.capacity:
                _park(queue, due, poller)
            else:
                poller.wake(now)


def _park(queue: EventQueue, due: int, poller: _MshrPoller) -> None:
    """Queue ``poller``'s next poll for cycle ``due``.

    The poll joins the group at the tail of that cycle's bucket when the
    tail is a poll group, and starts a new group otherwise, so anything
    else queued for the cycle in between ends a group.
    """
    bucket = queue.at[due]
    if bucket and bucket[-1].__class__ is _PollGroup:
        bucket[-1].pollers.append(poller)
    else:
        bucket.append(_PollGroup(queue, poller))
