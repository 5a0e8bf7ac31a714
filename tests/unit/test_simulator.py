"""Tests for the simulator driver, in particular its aggregate event budget."""

from __future__ import annotations

import pytest

from repro.config import CacheConfig
from repro.engine import Simulator
from repro.memory.cache import Cache
from repro.memory.request import AccessType, MemoryRequest
from repro.stats import StatsCollector


def _self_rescheduling(sim: Simulator):
    def tick() -> None:
        sim.schedule(1, tick)

    return tick


class TestSimulatorBudget:
    def test_budget_exhaustion_raises(self):
        sim = Simulator(max_events=10)
        sim.schedule(1, _self_rescheduling(sim))
        with pytest.raises(RuntimeError, match="event budget"):
            sim.run()
        assert sim.queue.executed == 10

    def test_budget_is_aggregate_across_runs(self):
        # a livelocked model must not get a fresh budget per run() call
        sim = Simulator(max_events=10)
        sim.schedule(1, _self_rescheduling(sim))
        sim.run(until=6)  # executes 6 events, stops on the time bound
        assert sim.queue.executed == 6
        with pytest.raises(RuntimeError, match="event budget"):
            sim.run()
        # only the remaining 4 events of the shared budget were executed
        assert sim.queue.executed == 10

    def test_exhausted_budget_raises_immediately_when_work_pending(self):
        sim = Simulator(max_events=3)
        sim.schedule(1, _self_rescheduling(sim))
        with pytest.raises(RuntimeError):
            sim.run()
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.queue.executed == 3

    def test_draining_within_budget_does_not_raise(self):
        sim = Simulator(max_events=5)
        fired = []
        for delay in (1, 2, 3):
            sim.schedule(delay, lambda d=delay: fired.append(d))
        assert sim.run() == 3
        assert fired == [1, 2, 3]

    def test_finish_hooks_fire_with_final_time(self):
        sim = Simulator()
        seen = []
        sim.on_finish(seen.append)
        sim.schedule(7, lambda: None)
        sim.run()
        assert seen == [7]


class TestMshrPollBudget:
    """MSHR-full polls fired as one poll group still count one event each
    against the budget."""

    @staticmethod
    def _livelocked_cache(sim: Simulator) -> None:
        # one MSHR, a downstream that never answers: the first miss holds
        # the entry forever and the other three poll for it every 64 cycles
        cache = Cache(
            name="l1.stuck",
            config=CacheConfig(size_bytes=4096, hit_latency=10, mshrs=1, ports=4),
            sim=sim,
            stats=StatsCollector(),
            downstream=lambda request, on_done: None,
            stat_prefix="l1",
        )
        for line in range(4):
            cache.access(
                MemoryRequest(access=AccessType.LOAD, address=line * 64, pc=0),
                lambda request: None,
            )

    def test_livelock_on_mshr_polls_exhausts_the_budget(self):
        sim = Simulator(max_events=300)
        self._livelocked_cache(sim)
        with pytest.raises(RuntimeError, match="event budget"):
            sim.run()
        # 4 lookups and 1 downstream call, then one group of 3 polls every
        # 64 cycles: counting each poll ends the run after ~98 groups, not
        # the ~295 it would take if a group counted once
        assert sim.now < 100 * 64
        # a group is never split: the run overshoots the budget by at most
        # the group's size minus one
        assert 300 <= sim.queue.executed <= 300 + 2

    def test_group_reaching_the_budget_finishes_then_stops(self):
        # 5 events before the first poll group at 64; a budget of 6 is
        # reached by its first poll, and its other two still fire
        sim = Simulator(max_events=6)
        self._livelocked_cache(sim)
        with pytest.raises(RuntimeError, match="event budget"):
            sim.run()
        assert sim.queue.executed == 8
        assert sim.now == 64
