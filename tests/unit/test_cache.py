"""Tests for the set-associative GPU cache model."""

from __future__ import annotations

from typing import Callable, Optional

import pytest

from repro.config import CacheConfig
from repro.core.dirty_block_index import DirtyBlockIndex
from repro.core.reuse_predictor import PredictorConfig, ReusePredictor
from repro.engine import Simulator
from repro.memory.cache import BYPASS_LATENCY, Cache, LineState
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
        cache.flush_dirty(lambda: None, keep_clean=True)
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


class TestOptimizationHooks:
    def test_dirty_block_index_rinses_row_on_eviction(self, sim, stats):
        # map every line to the same DRAM row so a dirty eviction rinses peers
        dbi = DirtyBlockIndex(row_of=lambda addr: 0)
        config = small_config(size_bytes=4 * 64, assoc=4, writeback=True)
        cache, backend = build_cache(
            sim, stats, config=config, dirty_block_index=dbi, row_of=lambda addr: 0
        )
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

    def test_dbi_requires_row_mapping(self, sim, stats):
        with pytest.raises(ValueError):
            Cache(
                name="bad",
                config=small_config(),
                sim=sim,
                stats=stats,
                downstream=lambda r, cb: None,
                stat_prefix="l1",
                dirty_block_index=DirtyBlockIndex(row_of=lambda a: 0),
            )


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
        # fill all 4 ways of set 0, drop them, then miss into the set again
        cache, _ = build_cache(sim, stats)
        for way in range(4):
            run_access(sim, cache, load(way * 16 * 64))
            sim.run()
        assert len(cache._tag_to_way[0]) == 4
        cache.invalidate_clean()
        run_access(sim, cache, load(64 * 64))
        sim.run()
        assert cache._tag_to_way[0] == {64 * 64: 0}

    def test_tag_map_tracks_installed_lines(self, sim, stats):
        cache, _ = build_cache(sim, stats)
        request = load(0x1000)
        run_access(sim, cache, request)
        sim.run()
        set_index = cache.config.set_index(0x1000)
        assert cache._tag_to_way[set_index].get(0x1000) is not None
        cache.invalidate_clean()
        assert 0x1000 not in cache._tag_to_way[set_index]
