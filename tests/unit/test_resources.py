"""Tests for the contention primitives (ThroughputResource, WaitQueue)."""

from __future__ import annotations

import pytest

from repro.engine.resources import ThroughputResource, WaitQueue


class TestThroughputResource:
    def test_back_to_back_grants_spaced_by_rate(self):
        port = ThroughputResource(cycles_per_grant=1.0)
        assert port.grant(10) == 10
        assert port.grant(10) == 11
        assert port.grant(10) == 12

    def test_idle_resource_grants_immediately(self):
        port = ThroughputResource(cycles_per_grant=1.0)
        port.grant(0)
        assert port.grant(100) == 100

    def test_fractional_rate_allows_multiple_grants_per_cycle(self):
        port = ThroughputResource(cycles_per_grant=0.25)
        grants = [port.grant(0) for _ in range(4)]
        assert grants == [0, 0, 0, 0]
        assert port.grant(0) == 1

    def test_wait_cycles_accumulate(self):
        port = ThroughputResource(cycles_per_grant=2.0)
        assert port.grant(0) == 0
        assert port.grant(0) == 2  # waits 2 cycles

    def test_grant_duration_occupies_resource(self):
        simd = ThroughputResource(cycles_per_grant=1.0)
        end = simd.grant_duration(5, 10)
        assert end == 15
        assert simd.grant(0) == 15

    def test_grant_duration_rejects_negative(self):
        simd = ThroughputResource()
        with pytest.raises(ValueError):
            simd.grant_duration(0, -1)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ThroughputResource(cycles_per_grant=0)


class TestWaitQueue:
    def test_wake_one_is_fifo(self):
        queue = WaitQueue()
        order = []
        queue.wait(lambda t: order.append("first"))
        queue.wait(lambda t: order.append("second"))
        queue.wake_one(5)
        assert order == ["first"]
        queue.wake_one(6)
        assert order == ["first", "second"]

    def test_wake_one_on_empty_returns_false(self):
        assert WaitQueue().wake_one(0) is False

    def test_wake_all_wakes_everything(self):
        queue = WaitQueue()
        woken = []
        for i in range(5):
            queue.wait(lambda t, i=i: woken.append(i))
        assert queue.wake_all(9) == 5
        assert woken == [0, 1, 2, 3, 4]
        assert len(queue) == 0

    def test_callbacks_receive_wake_time(self):
        queue = WaitQueue()
        times = []
        queue.wait(times.append)
        queue.wake_one(42)
        assert times == [42]

    def test_bool_and_counters(self):
        queue = WaitQueue()
        assert not queue
        queue.wait(lambda t: None)
        assert queue
