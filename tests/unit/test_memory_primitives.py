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

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemoryRequest(access=AccessType.LOAD, address=-4)

    def test_positional_construction_matches_keywords(self):
        positional = MemoryRequest(AccessType.STORE, 128, 7, 4, 50, True, False)
        keywords = MemoryRequest(
            access=AccessType.STORE, address=128, pc=7, stream_id=4, issue_cycle=50,
            bypass_l1=True, bypass_l2=False,
        )
        fields = ("access", "address", "pc", "stream_id", "issue_cycle", "bypass_l1", "bypass_l2")
        assert [getattr(positional, f) for f in fields] == [getattr(keywords, f) for f in fields]
        assert positional.is_store and not positional.is_load


def _fill_all(policy, assoc: int) -> None:
    """Install a line in every way of set 0, way ``w`` at cycle ``w``."""
    for way in range(assoc):
        policy.on_fill(0, way, cycle=way)


class TestLruReplacement:
    def test_victim_is_least_recently_used(self):
        lru = LruReplacement(num_sets=2, assoc=4)
        for way in range(4):
            lru.on_fill(0, way, cycle=way)
        lru.on_access(0, 0, cycle=100)
        assert lru.victim(0) == 1

    def test_pending_ways_are_never_victims(self):
        lru = LruReplacement(num_sets=1, assoc=4)
        _fill_all(lru, 4)
        lru.on_pending(0, 0)
        lru.on_pending(0, 1)
        assert lru.victim(0) == 2

    def test_untouched_ways_preferred(self):
        lru = LruReplacement(num_sets=1, assoc=4)
        lru.on_fill(0, 0, cycle=5)
        assert lru.victim(0) == 1

    def test_invalidated_way_preferred(self):
        lru = LruReplacement(num_sets=1, assoc=4)
        _fill_all(lru, 4)
        lru.on_invalidate(0, 3)
        assert lru.victim(0) == 3

    def test_all_ways_pending_blocks(self):
        lru = LruReplacement(num_sets=1, assoc=2)
        lru.on_pending(0, 0)
        lru.on_pending(0, 1)
        assert lru.victim(0) is None
        lru.on_fill(0, 1, cycle=9)
        assert lru.victim(0) == 1


class TestRandomReplacement:
    def test_victim_always_among_non_pending_ways(self):
        rng = RandomReplacement(num_sets=1, assoc=8)
        _fill_all(rng, 8)
        for way in (0, 2, 4, 6, 7):
            rng.on_pending(0, way)
        for _ in range(100):
            assert rng.victim(0) in (1, 3, 5)

    def test_invalid_way_taken_before_any_draw(self):
        a = RandomReplacement(1, 8, seed=7)
        b = RandomReplacement(1, 8, seed=7)
        _fill_all(a, 8)
        _fill_all(b, 8)
        a.on_invalidate(0, 6)
        assert a.victim(0) == 6
        # no draw was spent on the invalid way
        a.on_fill(0, 6, cycle=9)
        assert a.victim(0) == b.victim(0)

    def test_deterministic_for_same_seed(self):
        a = RandomReplacement(1, 8, seed=7)
        b = RandomReplacement(1, 8, seed=7)
        _fill_all(a, 8)
        _fill_all(b, 8)
        picks_a = [a.victim(0) for _ in range(20)]
        picks_b = [b.victim(0) for _ in range(20)]
        assert picks_a == picks_b

    def test_all_ways_pending_blocks(self):
        rng = RandomReplacement(num_sets=1, assoc=2)
        rng.on_pending(0, 0)
        rng.on_pending(0, 1)
        assert rng.victim(0) is None


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
        request = _req(0x1000)
        entry = mshrs.allocate(0x1000, request)
        assert mshrs.lookup(0x1000) is entry
        assert entry.primary is request
        assert len(mshrs) == 1

    def test_full_detection(self):
        mshrs = MshrFile(capacity=2)
        mshrs.allocate(0, _req(0))
        assert not mshrs.full
        mshrs.allocate(64, _req(64))
        assert mshrs.full

    def test_unlimited_capacity_never_full(self):
        mshrs = MshrFile(capacity=None)
        for i in range(1000):
            mshrs.allocate(i * 64, _req(i * 64))
        assert not mshrs.full

    def test_coalesce_attaches_waiters(self):
        mshrs = MshrFile(capacity=4)
        primary = _req(0)
        mshrs.allocate(0, primary)
        waiter = _req(0)
        entry = mshrs.coalesce(0, waiter)
        assert entry.all_requests == [primary, waiter]
        assert mshrs.total_coalesced == 1

    def test_entry_keeps_callbacks_in_request_order(self):
        # response callbacks live in the entry, primary first, then each
        # waiter in coalescing order, so a fill pairs them with all_requests
        mshrs = MshrFile(capacity=4)
        primary, load, store = _req(0), _req(0), MemoryRequest(AccessType.STORE, 0)
        seen = []
        callbacks = [lambda r, tag=tag: seen.append((tag, r)) for tag in "pls"]
        mshrs.allocate(0, primary, on_done=callbacks[0])
        mshrs.coalesce(0, load, callbacks[1])
        entry = mshrs.coalesce(0, store, callbacks[2])
        assert entry.callbacks == callbacks
        for request, callback in zip(entry.all_requests, entry.callbacks):
            callback(request)
        assert seen == [("p", primary), ("l", load), ("s", store)]
        assert mshrs.total_coalesced == 2

    def test_coalesce_without_entry_raises(self):
        with pytest.raises(KeyError):
            MshrFile(4).coalesce(0, _req(0))

    def test_release_removes_entry(self):
        mshrs = MshrFile(capacity=2)
        primary = _req(0)
        mshrs.allocate(0, primary)
        entry = mshrs.release(0)
        assert entry.primary is primary
        assert mshrs.lookup(0) is None
        with pytest.raises(KeyError):
            mshrs.release(0)

    def test_double_allocate_rejected(self):
        mshrs = MshrFile(capacity=4)
        mshrs.allocate(0, _req(0))
        with pytest.raises(RuntimeError):
            mshrs.allocate(0, _req(0))

    def test_allocate_when_full_rejected(self):
        mshrs = MshrFile(capacity=1)
        mshrs.allocate(0, _req(0))
        with pytest.raises(RuntimeError):
            mshrs.allocate(64, _req(64))
