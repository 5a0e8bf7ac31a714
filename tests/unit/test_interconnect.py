"""Tests for ``Link.send(target, request, on_done)`` and the hops built on it."""

from __future__ import annotations

from functools import partial

import pytest

from repro.config import scaled_config
from repro.core.policies import CACHE_R
from repro.core.policy_engine import PolicyEngine
from repro.engine import Simulator
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.interconnect import Link
from repro.memory.request import AccessType, MemoryRequest
from repro.stats import StatsCollector
from repro.topology import topology_by_name


class Recorder:
    """A far-side handler logging ``(cycle, request, on_done)`` per call."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.calls: list = []

    def __call__(self, request, on_done) -> None:
        self.calls.append((self.sim.now, request, on_done))


def respond(_request: MemoryRequest) -> None:
    pass


def load(address: int) -> MemoryRequest:
    return MemoryRequest(AccessType.LOAD, address)


class TestLinkSend:
    def test_target_called_once_at_grant_plus_latency(self):
        sim, stats = Simulator(), StatsCollector()
        link = Link("l", sim, stats, latency=7, requests_per_cycle=1.0)
        target = Recorder(sim)
        first, second = load(0), load(64)
        link.send(target, first, respond)
        link.send(target, second, respond)  # waits one cycle for bandwidth
        assert sim.queue.pending == 2 and target.calls == []
        sim.run()
        assert target.calls == [(7, first, respond), (8, second, respond)]
        assert sim.queue.executed == 2
        assert stats.get("link.l.transfers") == 2
        assert stats.get("link.l.contention_cycles") == 1

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="latency"):
            Link("l", Simulator(), StatsCollector(), latency=-1)

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_rejects_nonpositive_bandwidth(self, rate):
        with pytest.raises(ValueError, match="requests_per_cycle"):
            Link("l", Simulator(), StatsCollector(), latency=1, requests_per_cycle=rate)

    def test_zero_latency_delivers_in_the_send_cycle(self):
        sim, stats = Simulator(), StatsCollector()
        link = Link("l", sim, stats, latency=0)
        target = Recorder(sim)
        request = load(0)
        link.send(target, request, respond)
        sim.run()
        assert target.calls == [(0, request, respond)]

    def test_half_rate_link_spaces_grants_two_cycles_apart(self):
        sim, stats = Simulator(), StatsCollector()
        link = Link("l", sim, stats, latency=4, requests_per_cycle=0.5)
        target = Recorder(sim)
        requests = [load(64 * i) for i in range(3)]
        for request in requests:
            link.send(target, request, respond)
        sim.run()
        assert [(cycle, request) for cycle, request, _ in target.calls] == [
            (4, requests[0]),
            (6, requests[1]),
            (8, requests[2]),
        ]
        assert stats.get("link.l.contention_cycles") == 2 + 4

    def test_double_rate_link_grants_two_sends_per_cycle(self):
        sim, stats = Simulator(), StatsCollector()
        link = Link("l", sim, stats, latency=3, requests_per_cycle=2.0)
        target = Recorder(sim)
        requests = [load(64 * i) for i in range(3)]
        for request in requests:
            link.send(target, request, respond)
        sim.run()
        # same-cycle deliveries keep send order
        assert [(cycle, request) for cycle, request, _ in target.calls] == [
            (3, requests[0]),
            (3, requests[1]),
            (4, requests[2]),
        ]
        assert stats.get("link.l.transfers") == 3
        assert stats.get("link.l.contention_cycles") == 1

    def test_idle_link_charges_no_contention(self):
        sim, stats = Simulator(), StatsCollector()
        link = Link("l", sim, stats, latency=2)
        target = Recorder(sim)
        first, later = load(0), load(64)
        link.send(target, first, respond)
        sim.schedule(10, lambda: link.send(target, later, respond))
        sim.run()
        assert [(cycle, request) for cycle, request, _ in target.calls] == [
            (2, first),
            (12, later),
        ]
        assert stats.get("link.l.contention_cycles") == 0

    def test_a_bound_send_chains_two_hops(self):
        # the multi-device remote route: the first link's target is the
        # second link's send, bound to the final handler
        sim, stats = Simulator(), StatsCollector()
        first_hop = Link("a", sim, stats, latency=3)
        second_hop = Link("b", sim, stats, latency=5)
        target = Recorder(sim)
        request = load(0)
        first_hop.send(partial(second_hop.send, target), request, respond)
        sim.run()
        assert target.calls == [(8, request, respond)]
        assert sim.queue.executed == 2  # one delivery event per hop
        assert stats.get("link.a.transfers") == stats.get("link.b.transfers") == 1


class TestHierarchyHops:
    @pytest.mark.parametrize("home", [0, 1], ids=["local", "remote"])
    def test_response_carries_the_original_request(self, home):
        sim, stats = Simulator(), StatsCollector()
        hierarchy = MemoryHierarchy(
            scaled_config(2),
            sim,
            stats,
            PolicyEngine(CACHE_R),
            topology=topology_by_name("dual-chiplet"),
        )
        # CU 0 sits on device 0.  Under CacheR a store bypasses both
        # caches, so the slice's response reaches ``on_done`` unfiltered:
        # it must be the requester's object, not the re-addressed clone
        address = next(
            line * 64 for line in range(1, 4096) if hierarchy.device_of(line * 64) == home
        )
        request = MemoryRequest(AccessType.STORE, address)
        answered = []
        hierarchy.access(0, request, answered.append)
        sim.run()
        assert len(answered) == 1 and answered[0] is request
        assert request.address == address  # only the clone is re-addressed
        remote = home != 0
        assert stats.get("topo.remote_requests") == remote
        assert stats.get("topo.local_requests") == (not remote)
        assert stats.get("link.fabric.d0d1.transfers") == remote
        assert stats.get("link.fabric.d1d0.transfers") == 0
