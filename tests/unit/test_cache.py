"""Tests for the set-associative GPU cache model."""

from __future__ import annotations

from typing import Callable, Optional

import pytest

from repro.config import CacheConfig
from repro.core.dirty_block_index import DirtyBlockIndex
from repro.core.reuse_predictor import PredictorConfig, ReusePredictor
from repro.engine import Simulator
from repro.memory.cache import BYPASS_LATENCY, Cache, LineState
from repro.memory.replacement import INVALID, PENDING, LruReplacement
from repro.memory.request import AccessType, MemoryRequest
from repro.stats import StatsCollector


class Backend:
    """Downstream stub with configurable latency that records traffic."""

    def __init__(self, sim: Simulator, latency: int = 100) -> None:
        self.sim = sim
        self.latency = latency
        self.requests: list[MemoryRequest] = []

    def __call__(self, request: MemoryRequest, on_done) -> None:
        self.requests.append(request)
        self.sim.schedule(self.latency, lambda: on_done(request))

    @property
    def loads(self) -> int:
        return sum(1 for r in self.requests if r.is_load)

    @property
    def stores(self) -> int:
        return sum(1 for r in self.requests if r.is_store)


def small_config(**overrides) -> CacheConfig:
    defaults = dict(size_bytes=4096, line_bytes=64, assoc=4, hit_latency=10, mshrs=4)
    defaults.update(overrides)
    return CacheConfig(**defaults)


def build_cache(
    sim: Simulator,
    stats: StatsCollector,
    config: Optional[CacheConfig] = None,
    **kwargs,
) -> tuple[Cache, Backend]:
    backend = Backend(sim)
    cache = Cache(
        name="l1.test",
        config=config or small_config(),
        sim=sim,
        stats=stats,
        downstream=backend,
        stat_prefix="l1",
        **kwargs,
    )
    return cache, backend


def load(address: int, pc: int = 0x10) -> MemoryRequest:
    return MemoryRequest(access=AccessType.LOAD, address=address, pc=pc)


def store(address: int, pc: int = 0x20) -> MemoryRequest:
    return MemoryRequest(access=AccessType.STORE, address=address, pc=pc)


def run_access(sim: Simulator, cache: Cache, request: MemoryRequest) -> list[int]:
    completed: list[int] = []
    cache.access(request, lambda r: completed.append(sim.now))
    return completed


class TestHitsAndMisses:
    def test_first_access_misses_and_fetches(self, sim, stats):
        cache, backend = build_cache(sim, stats)
        done = run_access(sim, cache, load(0))
        sim.run()
        assert stats.get("l1.misses") == 1
        assert backend.loads == 1
        assert done and done[0] >= backend.latency

    def test_second_access_hits_without_refetch(self, sim, stats):
        cache, backend = build_cache(sim, stats)
        run_access(sim, cache, load(0))
        sim.run()
        done = run_access(sim, cache, load(0))
        sim.run()
        assert stats.get("l1.hits") == 1
        assert backend.loads == 1
        assert done and done[0] - sim.now <= 0  # completed

    def test_hit_latency_shorter_than_miss_latency(self, sim, stats):
        cache, backend = build_cache(sim, stats)
        miss_done = run_access(sim, cache, load(0))
        sim.run()
        miss_latency = miss_done[0]
        start = sim.now
        hit_done = run_access(sim, cache, load(0))
        sim.run()
        assert hit_done[0] - start < miss_latency

    def test_distinct_lines_do_not_alias(self, sim, stats):
        cache, backend = build_cache(sim, stats)
        run_access(sim, cache, load(0))
        run_access(sim, cache, load(64))
        sim.run()
        assert stats.get("l1.misses") == 2
        assert sorted(cache.contents().keys()) == [0, 64]

    def test_concurrent_misses_to_same_line_coalesce(self, sim, stats):
        cache, backend = build_cache(sim, stats)
        done_a = run_access(sim, cache, load(0))
        done_b = run_access(sim, cache, load(32))  # same 64B line
        sim.run()
        assert backend.loads == 1
        assert stats.get("l1.mshr_coalesced") == 1
        assert done_a and done_b


class TestEvictionAndCapacity:
    def test_capacity_eviction_selects_lru_victim(self, sim, stats):
        config = small_config(size_bytes=4 * 64, assoc=4)  # one set, four ways
        cache, backend = build_cache(sim, stats, config=config)
        for i in range(4):
            run_access(sim, cache, load(i * 64))
            sim.run()
        run_access(sim, cache, load(4 * 64))
        sim.run()
        contents = cache.contents()
        assert 0 not in contents  # line 0 was least recently used
        assert 4 * 64 in contents

    def test_replacement_swapped_before_first_access_picks_the_victims(self, sim, stats):
        class MostRecentlyUsed(LruReplacement):
            def victim(self, set_index):
                stamps = self._stamps[set_index]
                if INVALID in stamps:
                    return stamps.index(INVALID)
                settled = [stamp for stamp in stamps if stamp != PENDING]
                return stamps.index(max(settled)) if settled else None

        config = small_config(size_bytes=4 * 64, assoc=4)  # one set, four ways
        cache, backend = build_cache(sim, stats, config=config)
        assert type(cache.replacement) is LruReplacement
        cache.replacement = MostRecentlyUsed(config.num_sets, config.assoc)
        for i in range(5):
            run_access(sim, cache, load(i * 64))
            sim.run()
        contents = cache.contents()
        assert 3 * 64 not in contents  # the swapped policy evicts the newest line
        assert {0, 64, 128, 4 * 64} <= set(contents)

    def test_dirty_eviction_writes_back(self, sim, stats):
        config = small_config(size_bytes=4 * 64, assoc=4, writeback=True)
        cache, backend = build_cache(sim, stats, config=config)
        run_access(sim, cache, store(0))
        sim.run()
        for i in range(1, 5):
            run_access(sim, cache, store(i * 64))
            sim.run()
        assert stats.get("l1.eviction_writebacks") == 1
        assert backend.stores >= 1

    def test_clean_eviction_is_silent(self, sim, stats):
        config = small_config(size_bytes=4 * 64, assoc=4)
        cache, backend = build_cache(sim, stats, config=config)
        for i in range(5):
            run_access(sim, cache, load(i * 64))
            sim.run()
        assert stats.get("l1.clean_evictions") == 1
        assert backend.stores == 0


class TestBlockingAllocation:
    def test_set_full_of_pending_fills_blocks_and_counts_stalls(self, sim, stats):
        # one set, 2 ways, slow backend: the third miss must wait
        config = small_config(size_bytes=2 * 64, assoc=2, mshrs=8)
        cache, backend = build_cache(sim, stats, config=config)
        num_sets = config.num_sets
        stride = 64 * num_sets  # same set every time
        for i in range(3):
            run_access(sim, cache, load(i * stride))
        sim.run()
        assert stats.get("l1.blocked_set_busy") >= 1
        assert stats.get("l1.stall_cycles_alloc") > 0
        assert backend.loads == 3  # everything eventually fetched

    def test_mshr_exhaustion_blocks(self, sim, stats):
        config = small_config(size_bytes=64 * 64, assoc=4, mshrs=2)
        cache, backend = build_cache(sim, stats, config=config)
        for i in range(4):
            run_access(sim, cache, load(i * 64))
        sim.run()
        assert stats.get("l1.blocked_mshr_full") >= 1
        assert backend.loads == 4

    def test_blocked_requests_eventually_complete(self, sim, stats):
        config = small_config(size_bytes=2 * 64, assoc=2, mshrs=2)
        cache, backend = build_cache(sim, stats, config=config)
        completions = []
        stride = 64 * config.num_sets
        for i in range(6):
            cache.access(load(i * stride), lambda r: completions.append(r.address))
        sim.run()
        assert len(completions) == 6

    def test_allocation_bypass_avoids_blocking(self, sim, stats):
        config = small_config(size_bytes=2 * 64, assoc=2, mshrs=8)
        cache, backend = build_cache(sim, stats, config=config, allocation_bypass=True)
        stride = 64 * config.num_sets
        for i in range(4):
            run_access(sim, cache, load(i * stride))
        sim.run()
        assert stats.get("l1.blocked_set_busy", 0) == 0
        assert stats.get("l1.allocation_bypasses") >= 1
        assert stats.get("l1.stall_cycles_alloc", 0) == 0


class TestBypassPath:
    def test_policy_bypass_skips_allocation(self, sim, stats):
        cache, backend = build_cache(sim, stats)
        request = load(0)
        request.bypass_l1 = True
        done = run_access(sim, cache, request)
        sim.run()
        assert cache.contents() == {}
        assert stats.get("l1.bypasses") == 1
        assert done

    def test_pending_bypass_loads_coalesce(self, sim, stats):
        cache, backend = build_cache(sim, stats)
        first, second = load(0), load(0)
        first.bypass_l1 = True
        second.bypass_l1 = True
        done = []
        cache.access(first, lambda r: done.append("first"))
        cache.access(second, lambda r: done.append("second"))
        sim.run()
        assert backend.loads == 1
        assert sorted(done) == ["first", "second"]
        assert stats.get("l1.bypass_coalesced") == 1

    def test_bypassed_store_forwards_downstream(self, sim, stats):
        cache, backend = build_cache(sim, stats)
        request = store(0)
        request.bypass_l1 = True
        done = run_access(sim, cache, request)
        sim.run()
        assert backend.stores == 1
        assert done
        assert cache.dirty_line_count() == 0

    def test_bypass_latency_is_small(self, sim, stats):
        cache, backend = build_cache(sim, stats)
        request = load(0)
        request.bypass_l1 = True
        done = run_access(sim, cache, request)
        sim.run()
        assert done[0] <= BYPASS_LATENCY + backend.latency + 2


class TestWriteCombining:
    def test_store_allocates_dirty_without_fetch(self, sim, stats):
        config = small_config(writeback=True)
        cache, backend = build_cache(sim, stats, config=config)
        done = run_access(sim, cache, store(0))
        sim.run()
        assert backend.requests == []  # no fetch, no write-through
        assert cache.dirty_line_count() == 1
        assert done

    def test_repeated_stores_to_line_coalesce(self, sim, stats):
        config = small_config(writeback=True)
        cache, backend = build_cache(sim, stats, config=config)
        for offset in (0, 4, 8, 32):
            run_access(sim, cache, store(offset))
            sim.run()
        assert cache.dirty_line_count() == 1
        assert stats.get("l1.store_hits") == 3
        assert backend.stores == 0

    def test_write_through_cache_forwards_store_hits(self, sim, stats):
        config = small_config(writeback=False)
        cache, backend = build_cache(sim, stats, config=config)
        run_access(sim, cache, load(0))
        sim.run()
        run_access(sim, cache, store(0))
        sim.run()
        assert stats.get("l1.writethrough_stores") == 1
        assert backend.stores == 1
        assert cache.dirty_line_count() == 0


class TestInvalidationAndFlush:
    def test_invalidate_clean_drops_valid_lines(self, sim, stats):
        cache, backend = build_cache(sim, stats)
        for i in range(4):
            run_access(sim, cache, load(i * 64))
            sim.run()
        dropped = cache.invalidate_clean()
        assert dropped == 4
        assert cache.contents() == {}

    def test_invalidate_clean_preserves_dirty_lines(self, sim, stats):
        config = small_config(writeback=True)
        cache, backend = build_cache(sim, stats, config=config)
        run_access(sim, cache, store(0))
        run_access(sim, cache, load(64))
        sim.run()
        cache.invalidate_clean()
        contents = cache.contents()
        assert contents.get(0) == LineState.DIRTY
        assert 64 not in contents

    def test_flush_writes_back_all_dirty_lines(self, sim, stats):
        config = small_config(writeback=True)
        cache, backend = build_cache(sim, stats, config=config)
        for i in range(6):
            run_access(sim, cache, store(i * 64))
        sim.run()
        flushed = []
        cache.flush_dirty(lambda: flushed.append(sim.now))
        sim.run()
        assert backend.stores == 6
        assert flushed
        assert cache.dirty_line_count() == 0

    def test_flush_keep_clean_retains_data(self, sim, stats):
        config = small_config(writeback=True)
        cache, backend = build_cache(sim, stats, config=config)
        run_access(sim, cache, store(0))
        sim.run()
        cache.flush_dirty(lambda: None)
        sim.run()
        assert cache.contents().get(0) == LineState.VALID

    def test_flush_writes_back_in_set_order(self, sim, stats):
        # small_config has 16 sets; store to sets 15, 3, 7 (way 0 each)
        config = small_config(writeback=True)
        cache, backend = build_cache(sim, stats, config=config)
        for set_index in (15, 3, 7):
            run_access(sim, cache, store(set_index * 64))
        sim.run()
        cache.flush_dirty(lambda: None)
        sim.run()
        assert [r.address for r in backend.requests] == [3 * 64, 7 * 64, 15 * 64]

    def test_flush_finds_line_dirtied_by_a_store_merged_into_a_fill(self, sim, stats):
        config = small_config(writeback=True)
        cache, backend = build_cache(sim, stats, config=config)
        run_access(sim, cache, load(0))
        sim.run(until=config.hit_latency + 1)  # load miss outstanding
        run_access(sim, cache, store(0))
        sim.run()
        assert stats.get("l1.store_coalesced_on_miss") == 1
        assert cache.dirty_line_count() == 1
        cache.flush_dirty(lambda: None)
        sim.run()
        assert [r.address for r in backend.requests if r.is_store] == [0]
        assert cache.dirty_line_count() == 0

    def test_stream_scoped_flush_leaves_other_streams_for_later(self, sim, stats):
        config = small_config(writeback=True)
        cache, backend = build_cache(sim, stats, config=config)
        for address, stream in ((0, 0), (16 * 64, 1), (64, 1)):
            request = store(address)
            request.stream_id = stream
            run_access(sim, cache, request)
        sim.run()
        cache.flush_dirty(lambda: None, stream_id=0)
        sim.run()
        assert [r.address for r in backend.requests] == [0]
        assert cache.dirty_line_count() == 2
        # set 0 still holds stream 1's dirty line: a later flush must find it
        cache.flush_dirty(lambda: None, stream_id=1)
        sim.run()
        assert [r.address for r in backend.requests] == [0, 16 * 64, 64]
        assert cache.dirty_line_count() == 0

    def test_flush_with_nothing_dirty_completes_immediately(self, sim, stats):
        cache, backend = build_cache(sim, stats)
        called = []
        cache.flush_dirty(lambda: called.append(True))
        sim.run()
        assert called == [True]
        assert backend.stores == 0

    def test_flush_with_a_dirty_block_index_writes_back_in_row_order(self, sim, stats):
        # rows numbered against address order: the row walk reverses the set walk
        def row_of(address: int) -> int:
            return -address

        config = small_config(writeback=True)
        cache, backend = build_cache(
            sim,
            stats,
            config=config,
            dirty_block_index=DirtyBlockIndex(row_of=row_of),
        )
        for set_index in (3, 15, 7):
            run_access(sim, cache, store(set_index * 64))
        sim.run()
        cache.flush_dirty(lambda: None)
        sim.run()
        assert [r.address for r in backend.requests] == [15 * 64, 7 * 64, 3 * 64]
        assert cache.dirty_line_count() == 0

    def test_flush_returns_and_counts_its_writebacks(self, sim, stats):
        cache, _ = build_cache(sim, stats, config=small_config(writeback=True))
        for i in range(3):
            run_access(sim, cache, store(i * 64))
        sim.run()
        assert cache.flush_dirty(lambda: None) == 3
        sim.run()
        assert stats.get("l1.flush_writebacks") == 3

    def test_flush_completes_when_the_last_writeback_lands(self, sim, stats):
        cache, backend = build_cache(sim, stats, config=small_config(writeback=True))
        for i in range(3):
            run_access(sim, cache, store(i * 64))
        sim.run()
        start = sim.now
        flushed = []
        cache.flush_dirty(lambda: flushed.append((sim.now, backend.stores)))
        sim.run()
        assert flushed == [(start + backend.latency, 3)]

    def test_second_flush_finds_nothing_dirty(self, sim, stats):
        cache, backend = build_cache(sim, stats, config=small_config(writeback=True))
        run_access(sim, cache, store(0))
        sim.run()
        cache.flush_dirty(lambda: None)
        sim.run()
        assert cache.flush_dirty(lambda: None) == 0
        sim.run()
        assert backend.stores == 1

    def test_flushed_line_hits_without_a_refetch(self, sim, stats):
        cache, backend = build_cache(sim, stats, config=small_config(writeback=True))
        run_access(sim, cache, store(0))
        sim.run()
        cache.flush_dirty(lambda: None)
        sim.run()
        hits = stats.get("l1.hits")
        run_access(sim, cache, load(0))
        sim.run()
        assert stats.get("l1.hits") == hits + 1
        assert backend.loads == 0

    def test_flushed_line_is_evicted_without_a_second_writeback(self, sim, stats):
        cache, backend = build_cache(sim, stats, config=small_config(writeback=True))
        run_access(sim, cache, store(0))
        sim.run()
        cache.flush_dirty(lambda: None)
        sim.run()
        # four more lines of set 0 push the flushed line out of its 4 ways
        for k in range(1, 5):
            run_access(sim, cache, load(k * 16 * 64))
            sim.run()
        assert 0 not in cache.contents()
        assert backend.stores == 1
        assert stats.get("l1.eviction_writebacks") == 0
        assert stats.get("l1.clean_evictions") == 1


class TestOptimizationHooks:
    def test_dirty_block_index_rinses_row_on_eviction(self, sim, stats):
        # map every line to the same DRAM row so a dirty eviction rinses peers
        dbi = DirtyBlockIndex(row_of=lambda addr: 0)
        config = small_config(size_bytes=4 * 64, assoc=4, writeback=True)
        cache, backend = build_cache(sim, stats, config=config, dirty_block_index=dbi)
        for i in range(4):
            run_access(sim, cache, store(i * 64))
            sim.run()
        run_access(sim, cache, store(4 * 64))  # forces a dirty eviction
        sim.run()
        assert stats.get("l1.rinse_writebacks") >= 1
        assert backend.stores >= 2

    def test_reuse_predictor_bypasses_dead_pcs(self, sim, stats):
        predictor = ReusePredictor(PredictorConfig(bypass_threshold=2, initial_value=0))
        cache, backend = build_cache(sim, stats, reuse_predictor=predictor)
        # a PC whose counter is below threshold should bypass on non-sampler sets
        request = load(17 * 64, pc=0x1234)  # set 17 is not a sampler set (17 % 16 != 0)
        run_access(sim, cache, request)
        sim.run()
        assert stats.get("l1.predictor_bypasses") == 1
        assert cache.contents() == {}

    def test_sampler_sets_cache_despite_prediction(self, sim, stats):
        predictor = ReusePredictor(PredictorConfig(bypass_threshold=2, initial_value=0))
        cache, backend = build_cache(sim, stats, reuse_predictor=predictor)
        request = load(0, pc=0x1234)  # set 0 is a sampler set
        run_access(sim, cache, request)
        sim.run()
        assert stats.get("l1.predictor_bypasses", 0) == 0
        assert 0 in cache.contents()


class TestIndexedGeometry:
    """The cache caches its geometry and inlines the set-index arithmetic.

    The inline math in ``Cache._lookup``/``_locate``/``_is_sampler_set``/
    ``_bypass_access`` must stay exactly equivalent to the canonical
    ``CacheConfig.set_index``/``line_address`` helpers -- if the indexing
    scheme ever changes (e.g. hashed set indexing), this test points at the
    divergence instead of letting hit/miss behaviour drift silently.
    """

    @pytest.mark.parametrize(
        "config",
        [
            small_config(),
            small_config(size_bytes=16 * 1024, assoc=16),
            small_config(size_bytes=64, assoc=4),  # single-set edge case
        ],
        ids=["small", "16way", "single_set"],
    )
    def test_inline_index_math_matches_config_helpers(self, config):
        sim, stats = Simulator(), StatsCollector()
        cache, _ = build_cache(sim, stats, config=config)
        addresses = [0, 1, 63, 64, 65, 4095, 4096, 12345, 2**20 + 17]
        for address in addresses:
            inline_set = (address // cache._line_bytes) % cache._num_sets
            inline_line = address - (address % cache._line_bytes)
            assert inline_set == config.set_index(address), hex(address)
            assert inline_line == config.line_address(address), hex(address)
        assert cache._num_sets == config.num_sets
        assert cache._line_bytes == config.line_bytes

    def test_victim_is_first_invalid_way_after_invalidation(self, sim, stats):
        # fill all 4 ways of set 0 and hit way 0 last, so way 0 is not the
        # least recently used; drop them, then miss into the set again
        cache, _ = build_cache(sim, stats)
        for way in range(4):
            run_access(sim, cache, load(way * 16 * 64))
            sim.run()
        run_access(sim, cache, load(0))
        sim.run()
        assert len(cache._tag_to_way[0]) == 4
        cache.invalidate_clean()
        run_access(sim, cache, load(64 * 64))
        sim.run()
        assert cache._tag_to_way[0] == {64 * 64: 0}

    def test_invalidated_way_is_taken_before_an_older_dirty_line(self, sim, stats):
        # way 0 holds the set's oldest line, and it is dirty, so it stays;
        # the clean lines of ways 1-3 are dropped and the miss takes way 1
        cache, backend = build_cache(sim, stats, config=small_config(writeback=True))
        run_access(sim, cache, store(0))
        sim.run()
        for way in range(1, 4):
            run_access(sim, cache, load(way * 16 * 64))
            sim.run()
        assert cache.invalidate_clean() == 3
        run_access(sim, cache, load(64 * 64))
        sim.run()
        assert cache._tag_to_way[0] == {0: 0, 64 * 64: 1}
        assert backend.stores == 0

    def test_tag_map_tracks_installed_lines(self, sim, stats):
        cache, _ = build_cache(sim, stats)
        request = load(0x1000)
        run_access(sim, cache, request)
        sim.run()
        set_index = cache.config.set_index(0x1000)
        assert cache._tag_to_way[set_index].get(0x1000) is not None
        cache.invalidate_clean()
        assert 0x1000 not in cache._tag_to_way[set_index]


class ClosureCache(Cache):
    """Reference model: the per-request ``retry`` closure that MSHR-full
    polling used before poll groups.  Each poll is its own event."""

    def _block(self, request, set_index, reason, on_done):
        if reason != "mshr_full":
            super()._block(request, set_index, reason, on_done)
            return
        blocked_at = self._queue.now
        self._c_blocked_mshr_full.add()

        def retry() -> None:
            now = self._queue.now
            if self.mshrs.full:
                self._queue.schedule(self._mshr_retry_period, retry)
                return
            stall = now - blocked_at
            if stall > 0:
                self._c_stall_cycles_alloc.add(stall)
                self._c_stall_cycles.add(stall)
                if self.set_monitor is not None:
                    self.set_monitor.record_stall(set_index, stall)
            grant = self.port.grant(now)
            self._queue.schedule_at(
                grant, lambda: self._lookup(request, on_done, first_attempt=False)
            )

        self._queue.schedule(self._mshr_retry_period, retry)


class WakeLog:
    """Set-monitor stand-in: logs every MSHR wake-up, in order, as
    ``(cache label, set index, stall cycles)``."""

    def __init__(self, label: str, log: list) -> None:
        self.label = label
        self.log = log

    def record_miss(self, set_index: int, is_store: bool) -> None:
        pass

    def record_bypass(self, set_index: int, is_store: bool) -> None:
        pass

    def record_stall(self, set_index: int, cycles: int) -> None:
        self.log.append((self.label, set_index, cycles))


def polling_cache(
    sim: Simulator,
    stats: StatsCollector,
    label: str,
    latency: int,
    log: Optional[list] = None,
    cls: type = Cache,
) -> Cache:
    """A 2-MSHR cache whose 8 ports look up every access of a cycle in that
    cycle, over a backend answering after ``latency`` cycles; each address
    ``i * 64`` maps to set ``i``."""
    cache = cls(
        name=f"l1.{label}",
        config=small_config(size_bytes=64 * 64, mshrs=2, ports=8),
        sim=sim,
        stats=stats,
        downstream=Backend(sim, latency),
        stat_prefix=f"l1.{label}",
    )
    if log is not None:
        cache.set_monitor = WakeLog(label, log)
    return cache


def ignore(_request: MemoryRequest) -> None:
    pass


class TestMshrPollGroups:
    """Requests blocked on a full MSHR file poll every 64 cycles; the polls
    that sit next to each other in one cycle's bucket fire as one event.
    Every poll must keep the bucket slot it would hold as its own event."""

    def test_event_between_two_polls_keeps_its_place(self, sim, stats):
        log: list = []
        cache = polling_cache(sim, stats, "a", latency=30, log=log)
        for line in range(3):  # lines 0, 1 take both MSHRs; line 2 polls
            cache.access(load(line * 64), ignore)
        # queued for cycle 64 after line 2's poll, before line 3's
        sim.schedule(0, lambda: sim.queue.schedule_at(64, lambda: log.append("event")))
        cache.access(load(3 * 64), ignore)
        sim.run()
        # the fills free both entries at 40: each poll wakes at 64, around
        # the event (poll, event, poll -- not poll, poll, event)
        assert log == [("a", 2, 64), "event", ("a", 3, 64)]

    def test_full_file_reparks_earlier_polls_and_later_ones_wake(self, sim, stats):
        # one group holds two caches' polls: "slow"'s file is still full at
        # 64, "fast"'s freed at 40
        log: list = []
        slow = polling_cache(sim, stats, "slow", latency=100, log=log)
        fast = polling_cache(sim, stats, "fast", latency=30, log=log)
        for line in range(2):
            slow.access(load(line * 64), ignore)
            fast.access(load(line * 64), ignore)
        for line, cache in zip((2, 3, 4, 5), (slow, slow, fast, fast)):
            cache.access(load(line * 64), ignore)
        executed = []
        probe = lambda: executed.append(sim.queue.executed)  # noqa: E731
        sim.schedule(0, lambda: sim.queue.schedule_at(64, probe))  # after the polls
        sim.run()
        # at 64 the slow polls re-park and the fast ones wake, in order;
        # the slow polls wake at 128 in their original order
        assert log == [
            ("fast", 4, 64),
            ("fast", 5, 64),
            ("slow", 2, 128),
            ("slow", 3, 128),
        ]
        # up to the probe: 8 lookups and the probe's scheduling, 4
        # downstream calls, the fast fills and their 2 completions, then
        # the 4 polls, each counted once
        assert executed == [8 + 1 + 4 + 2 + 2 + 4 + 1]

    def test_all_full_group_moves_as_one_and_keeps_its_place(self, sim, stats):
        log: list = []
        cache = polling_cache(sim, stats, "a", latency=80, log=log)
        for line in range(4):  # lines 0, 1 fill at 90; lines 2, 3 poll
            cache.access(load(line * 64), ignore)

        def between() -> None:  # fires at 64 between the two poll groups
            sim.queue.schedule_at(128, lambda: log.append("mid"))

        sim.schedule(0, lambda: sim.queue.schedule_at(64, between))
        cache.access(load(4 * 64), ignore)  # polls after ``between``
        sim.queue.schedule_at(128, lambda: log.append("early"))
        sim.run(until=64)
        # both groups found the file full at 64 and each moved as one
        # callback: cycle 90 holds the two fills, cycle 128 holds early,
        # group {2, 3}, mid, group {4}
        assert sim.queue.pending == 2 + 4
        sim.run()
        # line 4 wakes after mid; its lookup then finds both entries taken
        # by lines 2 and 3, so it blocks again and next wakes at 256
        assert log == [
            "early",
            ("a", 2, 128),
            ("a", 3, 128),
            "mid",
            ("a", 4, 128),
            ("a", 4, 128),
        ]

    @staticmethod
    def _churn(cls: type) -> tuple[dict, list, list, int, int]:
        """Two caches on one queue under a load stream that keeps both MSHR
        files full: counters, wake-up log, completion log, executed events
        and end cycle."""
        sim, stats = Simulator(), StatsCollector()
        wakes: list = []
        done: list = []
        caches = [
            polling_cache(sim, stats, "a", latency=150, log=wakes, cls=cls),
            polling_cache(sim, stats, "b", latency=230, log=wakes, cls=cls),
        ]
        for i in range(120):
            cache = caches[i % 2]
            request = load(((i * 13) % 40) * 64)

            def issue(cache=cache, request=request, i=i) -> None:
                cache.access(request, lambda r, i=i: done.append((i, sim.now)))

            sim.queue.schedule_at((i * 37) % 400, issue)
        sim.run()
        return stats.counters(), wakes, done, sim.queue.executed, sim.now

    def test_counters_and_timing_equal_the_closure_model(self):
        grouped = self._churn(Cache)
        counters = grouped[0]
        assert counters["l1.a.blocked_mshr_full"] > 10
        assert counters["l1.b.blocked_mshr_full"] > 10
        assert grouped == self._churn(ClosureCache)
