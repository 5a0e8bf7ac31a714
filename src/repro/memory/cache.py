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
never scan ways linearly), all statistics are pre-bound
:class:`~repro.stats.counters.Counter` handles resolved once in
``__init__``, and event scheduling goes straight to the shared event queue.
Scheduled callbacks are ``functools.partial`` objects over the target
method rather than lambdas, so firing an event runs one Python frame
instead of two.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.config import CacheConfig
from repro.engine import Simulator, ThroughputResource, WaitQueue
from repro.memory.mshr import MshrFile
from repro.memory.replacement import make_replacement
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

    @property
    def busy(self) -> bool:
        return self.state is _PENDING

    @property
    def holds_data(self) -> bool:
        state = self.state
        return state is _VALID or state is _DIRTY

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
        dirty_block_index: optional DBI used for cache rinsing (VII.B).
        row_of: maps a line address to its DRAM row identifier (required when
            a DBI is attached).
        replacement: ``"lru"`` (default) or ``"random"``.
    """

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
        row_of: Optional[Callable[[int], int]] = None,
        replacement: str = "lru",
    ) -> None:
        self.name = name
        self.config = config
        self.sim = sim
        self.stats = stats
        self.downstream = downstream
        self.prefix = stat_prefix
        self.allocation_bypass = allocation_bypass
        self.reuse_predictor = reuse_predictor
        self.dbi = dirty_block_index
        self.row_of = row_of
        if self.dbi is not None and self.row_of is None:
            raise ValueError("a dirty-block index requires a row_of mapping function")

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
        self.replacement = make_replacement(replacement, config.num_sets, config.assoc)
        self.mshrs = MshrFile(config.mshrs)
        self.bypass_pending = MshrFile(capacity=None)
        #: optional set-dueling observer (attached to the L2 by adaptive
        #: sessions); when None -- every static run -- the hooks cost one
        #: attribute test per lookup and record nothing
        self.set_monitor: Optional["SetDuelingMonitor"] = None
        self.port = ThroughputResource(f"{name}.port", cycles_per_grant=1.0 / config.ports)
        self._set_waiters: dict[int, WaitQueue] = {}
        # sampler sets always cache so the reuse predictor keeps training
        self._sampler_stride = 16
        # blocked-on-MSHR requests poll for a free entry on this period; the
        # added latency is negligible next to memory latency under load and
        # the polling model cannot lose wake-ups
        self._mshr_retry_period = 64

        # geometry constants and event-queue entry points, resolved once
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._hit_latency = config.hit_latency
        queue = sim.queue
        self._queue = queue
        self._schedule = queue.schedule
        self._schedule_at = queue.schedule_at

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
        self._c_accesses.add()
        if (request.bypass_l1 if self._is_l1 else request.bypass_l2) or (
            self.reuse_predictor is not None and self._predicted_dead(request)
        ):
            self._bypass_access(request, on_done)
            return
        now = self._queue.now
        grant = self.port.grant(now)
        wait = grant - now
        if wait > 0:
            self._c_stall_cycles_port.add(wait)
            self._c_stall_cycles.add(wait)
        self._schedule_at(grant, partial(self._lookup, request, on_done, True))

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
        for ways, tag_map in zip(self.sets, self._tag_to_way):
            for line in ways:
                if line.state is _VALID and (
                    stream_id is None or line.stream_id == stream_id
                ):
                    self._notify_eviction(line)
                    line.state = _INVALID
                    tag_map.pop(line.tag, None)
                    line.tag = -1
                    dropped += 1
        self._c_self_invalidations.add(dropped)
        return dropped

    def flush_dirty(
        self,
        on_complete: Callable[[], None],
        keep_clean: bool = True,
        stream_id: Optional[int] = None,
    ) -> int:
        """Write back dirty lines, then invoke ``on_complete``.

        Returns the number of writebacks issued.  With a dirty-block index
        attached the flush walks DRAM rows (row-ordered writebacks); without
        one it walks sets in index order, which is what a hardware flush
        engine does and which produces the row-locality disruption discussed
        in section VI.C.2.

        Args:
            keep_clean: leave the flushed lines valid (clean) in the cache,
                as a release flush does; pass False to invalidate them.
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
            self._schedule(0, on_complete)
            return 0
        if self.dbi is not None:
            dirty.sort(key=lambda sw: self.row_of(self._line_address(*sw)))
        outstanding = len(dirty)

        def writeback_done(_req: MemoryRequest) -> None:
            nonlocal outstanding
            outstanding -= 1
            if outstanding == 0:
                on_complete()

        for set_index, way in dirty:
            line = self.sets[set_index][way]
            address = self._line_address(set_index, way)
            if keep_clean:
                line.state = _VALID
            else:
                self._notify_eviction(line)
                line.state = _INVALID
                self._tag_to_way[set_index].pop(line.tag, None)
                line.tag = -1
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
            self._c_predictor_bypasses.add()
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
        entry = self.mshrs.lookup(line_address)
        if entry is not None:
            if request.is_store and self.config.writeback:
                # the store's data will be merged when the fill returns
                entry.add_waiter(request)
                self._c_store_coalesced_on_miss.add()
            else:
                self.mshrs.coalesce(line_address, request)
            self._c_mshr_coalesced.add()
            self._record_waiter_callback(request, on_done)
            return

        # miss: need an MSHR (loads) and a victim way
        if first_attempt:
            self._c_misses.add()
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
        self._c_hits.add()
        if request.is_store:
            if self.config.writeback:
                line.state = _DIRTY
                self._dirty_sets.add(set_index)
                # the dirty data belongs to the storing stream: its own
                # release (kernel boundary) must write it back
                line.stream_id = request.stream_id
                if self.dbi is not None:
                    self.dbi.mark_dirty(self._line_address(set_index, way))
                self._c_store_hits.add()
            else:
                # write-through cache: update and forward the write downstream
                self._c_writethrough_stores.add()
                self._schedule(
                    self._hit_latency,
                    lambda: self.downstream(request, lambda r: None),
                )
                self._schedule(self._hit_latency, partial(on_done, request))
                return
        self._schedule(self._hit_latency, partial(on_done, request))

    def _load_miss(
        self,
        request: MemoryRequest,
        set_index: int,
        line_address: int,
        on_done: Callable[[MemoryRequest], None],
    ) -> None:
        victim_way = self._find_victim(set_index)
        blocked_reason = None
        if victim_way is None:
            blocked_reason = "set_busy"
        elif self.mshrs.full:
            blocked_reason = "mshr_full"

        if blocked_reason is not None:
            if self.allocation_bypass:
                request.converted_bypass = True
                self._c_allocation_bypasses.add()
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
        self.mshrs.allocate(
            line_address, request, self._queue.now, allocate_way=victim_way
        )
        self._record_waiter_callback(request, on_done)
        if self.reuse_predictor is not None:
            self.reuse_predictor.record_insertion(request.pc)

        self._schedule(
            self._hit_latency,
            partial(
                self.downstream,
                request,
                partial(self._fill, line_address, set_index, victim_way),
            ),
        )

    def _store_allocate(
        self,
        request: MemoryRequest,
        set_index: int,
        line_address: int,
        on_done: Callable[[MemoryRequest], None],
    ) -> None:
        """Write-combining store miss: allocate a dirty line without fetching."""
        victim_way = self._find_victim(set_index)
        if victim_way is None:
            if self.allocation_bypass:
                request.converted_bypass = True
                self._c_allocation_bypasses.add()
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
        if self.reuse_predictor is not None:
            self.reuse_predictor.record_insertion(request.pc)
        self._c_store_allocates.add()
        self._schedule(self._hit_latency, partial(on_done, request))

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
        polling cannot.
        """
        blocked_at = self._queue.now
        if reason == "set_busy":
            self._c_blocked_set_busy.add()
        else:
            self._c_blocked_mshr_full.add()

        def account(wake_time: int) -> None:
            stall = wake_time - blocked_at
            if stall > 0:
                self._c_stall_cycles_alloc.add(stall)
                self._c_stall_cycles.add(stall)
                if self.set_monitor is not None:
                    self.set_monitor.record_stall(set_index, stall)

        if reason == "set_busy":

            def resume(wake_time: int) -> None:
                account(wake_time)
                grant = self.port.grant(wake_time)
                self._schedule_at(
                    grant, lambda: self._lookup(request, on_done, first_attempt=False)
                )

            self._set_wait_queue(set_index).wait(blocked_at, resume)
            return

        def retry() -> None:
            now = self._queue.now
            if self.mshrs.full:
                self._schedule(self._mshr_retry_period, retry)
                return
            account(now)
            grant = self.port.grant(now)
            self._schedule_at(
                grant, lambda: self._lookup(request, on_done, first_attempt=False)
            )

        self._schedule(self._mshr_retry_period, retry)

    def _set_wait_queue(self, set_index: int) -> WaitQueue:
        queue = self._set_waiters.get(set_index)
        if queue is None:
            queue = WaitQueue(f"{self.name}.set{set_index}")
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
        waiters = entry.waiters
        requests = [entry.primary, *waiters] if waiters else [entry.primary]
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
        self._c_fills.add()
        schedule = self._schedule
        for req in requests:
            callback = self._pop_waiter_callback(req)
            if callback is not None:
                schedule(0, partial(callback, req))
        self._wake_after_fill(set_index)

    def _find_victim(self, set_index: int) -> Optional[int]:
        """Pick a victim way, or None if every way is busy (pending fill).

        The first invalid way wins; otherwise the replacement policy picks
        among the ways that are not busy.  The set's tag map holds exactly
        its non-invalid lines, so a full map skips the invalid-way scan.
        """
        ways = self.sets[set_index]
        if len(self._tag_to_way[set_index]) < self._assoc:
            for way, line in enumerate(ways):
                if line.state is _INVALID:
                    return way
        candidates = [way for way, line in enumerate(ways) if line.state is not _PENDING]
        if not candidates:
            return None
        return self.replacement.select_victim(set_index, candidates)

    def _evict(self, set_index: int, way: int) -> None:
        """Evict the current occupant of ``way`` (issuing writebacks as needed)."""
        line = self.sets[set_index][way]
        if line.state is _INVALID:
            return
        address = self._line_address(set_index, way)
        self._notify_eviction(line)
        if line.state is _DIRTY:
            self._c_eviction_writebacks.add()
            if self.dbi is not None:
                self._rinse_row(address)
            else:
                self._send_writeback(address, lambda r: None)
        else:
            self._c_clean_evictions.add()
        line.state = _INVALID
        self._tag_to_way[set_index].pop(line.tag, None)
        line.tag = -1

    def _rinse_row(self, evicted_address: int) -> None:
        """Write back the evicted dirty line plus all dirty lines in its DRAM row."""
        row = self.row_of(evicted_address)
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
            self._c_rinse_writebacks.add()
            self._send_writeback(address, lambda r: None)
        self._send_writeback(evicted_address, lambda r: None)

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
        writeback = MemoryRequest(
            access=AccessType.STORE,
            address=address,
            pc=0,
            issue_cycle=self._queue.now,
            bypass_l1=True,
            bypass_l2=True,
        )
        self._c_writebacks.add()
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
        self._c_bypasses.add()
        address = request.address
        line_address = address - (address % self._line_bytes)
        if request.is_load:
            pending = self.bypass_pending.lookup(line_address)
            if pending is not None:
                self.bypass_pending.coalesce(line_address, request)
                self._record_waiter_callback(request, on_done)
                self._c_bypass_coalesced.add()
                return
            if self.set_monitor is not None:
                # only traffic-initiating bypasses score (coalesced riders
                # are free, matching the MSHR-coalesced case on the cached
                # side which is likewise not recorded)
                self.set_monitor.record_bypass(
                    (address // self._line_bytes) % self._num_sets, False
                )
            self.bypass_pending.allocate(line_address, request, self._queue.now)
            self._record_waiter_callback(request, on_done)
            self._schedule(
                BYPASS_LATENCY,
                partial(self.downstream, request, partial(self._bypass_fill, line_address)),
            )
            return
        # bypassed store: fire and forward; completion when downstream accepts
        if self.set_monitor is not None:
            self.set_monitor.record_bypass(
                (address // self._line_bytes) % self._num_sets, True
            )
        self._schedule(BYPASS_LATENCY, partial(self.downstream, request, on_done))

    def _bypass_fill(
        self, line_address: int, _response: Optional[MemoryRequest] = None
    ) -> None:
        entry = self.bypass_pending.release(line_address)
        schedule = self._schedule
        for req in entry.all_requests:
            callback = self._pop_waiter_callback(req)
            if callback is not None:
                schedule(0, partial(callback, req))

    # ------------------------------------------------------------------
    # waiter-callback bookkeeping
    # ------------------------------------------------------------------
    def _record_waiter_callback(
        self, request: MemoryRequest, on_done: Callable[[MemoryRequest], None]
    ) -> None:
        # completion callbacks are stored on the request itself so coalesced
        # requests each get their own response
        callbacks = request._cache_callbacks
        if callbacks is None:
            callbacks = request._cache_callbacks = {}
        callbacks[self.name] = on_done

    def _pop_waiter_callback(
        self, request: MemoryRequest
    ) -> Optional[Callable[[MemoryRequest], None]]:
        callbacks = request._cache_callbacks
        if not callbacks:
            return None
        return callbacks.pop(self.name, None)

    # ------------------------------------------------------------------
    def _line_address(self, set_index: int, way: int) -> int:
        return self.sets[set_index][way].tag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cache({self.name}, {self.config.size_bytes // 1024} KB)"
