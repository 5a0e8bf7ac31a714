"""Tests for memory requests, replacement policies and MSHRs."""

from __future__ import annotations

import pytest

from repro.memory.mshr import MshrFile
from repro.memory.replacement import LruReplacement, RandomReplacement, make_replacement
from repro.memory.request import AccessType, MemoryRequest


class TestMemoryRequest:
    def test_load_and_store_flags(self):
        load = MemoryRequest(access=AccessType.LOAD, address=0)
        store = MemoryRequest(access=AccessType.STORE, address=64)
        assert load.is_load and not load.is_store
        assert store.is_store and not store.is_load

    def test_line_address(self):
        req = MemoryRequest(access=AccessType.LOAD, address=200)
        assert req.line_address(64) == 192

    def test_request_ids_are_unique(self):
        a = MemoryRequest(access=AccessType.LOAD, address=0)
        b = MemoryRequest(access=AccessType.LOAD, address=0)
        assert a.req_id != b.req_id

    def test_complete_invokes_callback_once(self):
        seen = []
        req = MemoryRequest(access=AccessType.LOAD, address=0, issue_cycle=10)
        req.on_complete = seen.append
        req.complete(150)
        assert seen == [req]
        assert req.latency == 140
        with pytest.raises(RuntimeError):
            req.complete(200)

    def test_latency_is_none_before_completion(self):
        req = MemoryRequest(access=AccessType.LOAD, address=0)
        assert req.latency is None

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemoryRequest(access=AccessType.LOAD, address=-4)

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryRequest(access=AccessType.LOAD, address=0, size=0)

    def test_positional_construction_matches_keywords(self):
        positional = MemoryRequest(AccessType.STORE, 128, 7, 1, 2, 3, 4, 50, req_id=9)
        keywords = MemoryRequest(
            access=AccessType.STORE, address=128, pc=7, cu_id=1, wavefront_id=2,
            kernel_id=3, stream_id=4, issue_cycle=50, req_id=9,
        )
        assert positional == keywords
        assert positional.is_store and not positional.is_load
        assert positional._cache_callbacks is None


class TestLruReplacement:
    def test_victim_is_least_recently_used(self):
        lru = LruReplacement(num_sets=2, assoc=4)
        for way in range(4):
            lru.on_fill(0, way, cycle=way)
        lru.on_access(0, 0, cycle=100)
        assert lru.select_victim(0, [0, 1, 2, 3]) == 1

    def test_victim_restricted_to_candidates(self):
        lru = LruReplacement(num_sets=1, assoc=4)
        for way in range(4):
            lru.on_fill(0, way, cycle=way)
        assert lru.select_victim(0, [2, 3]) == 2

    def test_untouched_ways_preferred(self):
        lru = LruReplacement(num_sets=1, assoc=4)
        lru.on_fill(0, 0, cycle=5)
        assert lru.select_victim(0, [0, 1]) == 1

    def test_empty_candidates_rejected(self):
        lru = LruReplacement(num_sets=1, assoc=2)
        with pytest.raises(ValueError):
            lru.select_victim(0, [])


class TestRandomReplacement:
    def test_victim_always_among_candidates(self):
        rng = RandomReplacement(num_sets=1, assoc=8)
        for _ in range(100):
            assert rng.select_victim(0, [1, 3, 5]) in (1, 3, 5)

    def test_deterministic_for_same_seed(self):
        a = RandomReplacement(1, 8, seed=7)
        b = RandomReplacement(1, 8, seed=7)
        picks_a = [a.select_victim(0, list(range(8))) for _ in range(20)]
        picks_b = [b.select_victim(0, list(range(8))) for _ in range(20)]
        assert picks_a == picks_b


class TestReplacementFactory:
    def test_factory_builds_both_kinds(self):
        assert isinstance(make_replacement("lru", 4, 4), LruReplacement)
        assert isinstance(make_replacement("random", 4, 4), RandomReplacement)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_replacement("plru", 4, 4)


def _req(address: int) -> MemoryRequest:
    return MemoryRequest(access=AccessType.LOAD, address=address)


class TestMshrFile:
    def test_allocate_and_lookup(self):
        mshrs = MshrFile(capacity=4)
        entry = mshrs.allocate(0x1000, _req(0x1000), cycle=5, allocate_way=2)
        assert mshrs.lookup(0x1000) is entry
        assert entry.allocate_way == 2
        assert len(mshrs) == 1

    def test_full_detection(self):
        mshrs = MshrFile(capacity=2)
        mshrs.allocate(0, _req(0), 0)
        assert not mshrs.full
        mshrs.allocate(64, _req(64), 0)
        assert mshrs.full

    def test_unlimited_capacity_never_full(self):
        mshrs = MshrFile(capacity=None)
        for i in range(1000):
            mshrs.allocate(i * 64, _req(i * 64), 0)
        assert not mshrs.full

    def test_coalesce_attaches_waiters(self):
        mshrs = MshrFile(capacity=4)
        primary = _req(0)
        mshrs.allocate(0, primary, 0)
        waiter = _req(0)
        entry = mshrs.coalesce(0, waiter)
        assert entry.all_requests == [primary, waiter]
        assert mshrs.total_coalesced == 1

    def test_coalesce_without_entry_raises(self):
        with pytest.raises(KeyError):
            MshrFile(4).coalesce(0, _req(0))

    def test_release_removes_entry(self):
        mshrs = MshrFile(capacity=2)
        mshrs.allocate(0, _req(0), 0)
        entry = mshrs.release(0)
        assert entry.line_address == 0
        assert mshrs.lookup(0) is None
        with pytest.raises(KeyError):
            mshrs.release(0)

    def test_double_allocate_rejected(self):
        mshrs = MshrFile(capacity=4)
        mshrs.allocate(0, _req(0), 0)
        with pytest.raises(RuntimeError):
            mshrs.allocate(0, _req(0), 0)

    def test_allocate_when_full_rejected(self):
        mshrs = MshrFile(capacity=1)
        mshrs.allocate(0, _req(0), 0)
        with pytest.raises(RuntimeError):
            mshrs.allocate(64, _req(64), 0)

    def test_peak_occupancy_tracked(self):
        mshrs = MshrFile(capacity=8)
        for i in range(5):
            mshrs.allocate(i * 64, _req(i * 64), 0)
        for i in range(5):
            mshrs.release(i * 64)
        assert mshrs.peak_occupancy == 5
