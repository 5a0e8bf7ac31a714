"""Unit tests for the online adaptive policy subsystem."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.adaptive import (
    AdaptiveConfig,
    DynamicPolicyController,
    DynamicPolicyEngine,
    PhaseDetector,
    SetDuelingMonitor,
)
from repro.adaptive.phase import (
    HIT_RATE_DELTA,
    INTENSITY_DELTA,
    WRITE_FRACTION_DELTA,
    PhaseSample,
    phase_changed,
)
from repro.adaptive.set_dueling import COST_FETCH, COST_STORE_ALLOCATE
from repro.config import CacheConfig
from repro.core.policies import (
    CACHE_R,
    CACHE_RW,
    CACHE_RW_AB,
    CACHE_RW_PCBY,
    STATIC_POLICIES,
    UNCACHED,
)
from repro.engine import Simulator
from repro.memory.request import AccessType, MemoryRequest
from repro.stats import StatsCollector

#: a 64 KB / 16-way L2 (64 sets) keeps leader math small
L2 = CacheConfig(size_bytes=64 * 1024, writeback=True)


def load(address: int) -> MemoryRequest:
    return MemoryRequest(access=AccessType.LOAD, address=address)


def store(address: int) -> MemoryRequest:
    return MemoryRequest(access=AccessType.STORE, address=address)


class TestAdaptiveConfig:
    def test_defaults_are_valid_and_duel_the_static_three(self):
        config = AdaptiveConfig()
        assert tuple(p.name for p in config.candidates) == (
            "Uncached",
            "CacheR",
            "CacheRW",
        )
        assert not config.pinned
        # the default start is CacheR, the read-caching hardware default
        assert config.initial_policy is CACHE_R

    def test_single_candidate_is_pinned_and_starts_there(self):
        config = AdaptiveConfig(candidates=(CACHE_RW,))
        assert config.pinned
        assert config.initial_policy is CACHE_RW

    def test_rejects_empty_candidates(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(candidates=())

    def test_rejects_duplicate_candidate_names(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(candidates=(CACHE_RW, CACHE_RW))

    def test_rejects_mixed_optimization_flags(self):
        with pytest.raises(ValueError, match="optimization flags"):
            AdaptiveConfig(candidates=(CACHE_RW, CACHE_RW_PCBY))

    def test_allows_uniform_optimization_flags(self):
        config = AdaptiveConfig(candidates=(CACHE_RW_AB,))
        assert config.initial_policy.allocation_bypass

    def test_rejects_out_of_range_initial_index(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(initial_index=3)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("leader_sets_per_policy", 0),
            ("min_leader_accesses", 0),
            ("commit_decisions", -1),
            ("hysteresis", -0.1),
            ("epoch_cycles", 0),
        ],
    )
    def test_rejects_bad_knobs(self, field, value):
        with pytest.raises(ValueError):
            AdaptiveConfig(**{field: value})

    def test_fingerprint_is_stable_and_knob_sensitive(self):
        assert AdaptiveConfig().fingerprint() == AdaptiveConfig().fingerprint()
        assert (
            AdaptiveConfig().fingerprint()
            != AdaptiveConfig(epoch_cycles=999).fingerprint()
        )
        assert (
            AdaptiveConfig().fingerprint()
            != AdaptiveConfig(candidates=(UNCACHED, CACHE_R)).fingerprint()
        )


class TestSetDuelingMonitor:
    def make(self, leaders=2, num_sets=64) -> SetDuelingMonitor:
        return SetDuelingMonitor(
            STATIC_POLICIES,
            num_sets=num_sets,
            stats=StatsCollector(),
            leader_sets_per_policy=leaders,
            writeback=True,
        )

    def test_every_candidate_gets_the_requested_leaders(self):
        monitor = self.make(leaders=2)
        owners = [monitor.leader_index(s) for s in range(64)]
        for index in range(len(STATIC_POLICIES)):
            assert owners.count(index) == 2

    def test_leader_constituencies_are_adjacent_and_rotated(self):
        monitor = self.make(leaders=3)
        # constituency 0 starts at set 0 with identity order ...
        assert [monitor.leader_index(s) for s in (0, 1, 2)] == [0, 1, 2]
        # ... and later constituencies rotate which candidate is first
        stride = 64 // 3
        assert monitor.leader_index(stride) == 1

    def test_followers_have_no_leader(self):
        monitor = self.make(leaders=1)
        followers = [s for s in range(64) if monitor.leader_index(s) is None]
        assert len(followers) == 64 - 3

    def test_leader_allocation_clamps_on_tiny_caches(self):
        monitor = SetDuelingMonitor(
            STATIC_POLICIES,
            num_sets=16,
            stats=StatsCollector(),
            leader_sets_per_policy=16,
            writeback=True,
        )
        assert monitor.leader_sets_per_policy == 2  # 16 // (2 * 3)

    def test_too_few_sets_to_duel_raises(self):
        with pytest.raises(ValueError):
            SetDuelingMonitor(
                STATIC_POLICIES,
                num_sets=4,
                stats=StatsCollector(),
                leader_sets_per_policy=1,
                writeback=True,
            )

    def test_costs_and_demand_accumulate_per_candidate(self):
        monitor = self.make(leaders=1)
        monitor.record_demand(0)
        monitor.record_demand(0)
        monitor.record_miss(0, is_store=False)  # set 0 belongs to candidate 0
        monitor.record_miss(0, is_store=True)
        monitor.record_bypass(0, is_store=False)
        monitor.record_stall(0, cycles=50)
        score = monitor.scores()[0]
        assert score.accesses == 2
        assert score.traffic == 2 * COST_FETCH + COST_STORE_ALLOCATE
        assert score.stall_halflines == 2  # 50 cycles at 25 cycles/half-line
        assert score.cost_per_access == pytest.approx((5 + 2) / 2)

    def test_follower_costs_are_ignored(self):
        monitor = self.make(leaders=1)
        follower = next(s for s in range(64) if monitor.leader_index(s) is None)
        monitor.record_miss(follower, is_store=False)
        monitor.record_bypass(follower, is_store=True)
        assert all(score.traffic == 0 for score in monitor.scores())

    def test_disabled_monitor_records_nothing(self):
        monitor = self.make(leaders=1)
        monitor.enabled = False
        monitor.record_miss(0, is_store=False)
        monitor.record_stall(0, cycles=100)
        assert all(score.traffic == 0 for score in monitor.scores())

    def test_decay_halves_and_reset_clears(self):
        monitor = self.make(leaders=1)
        monitor.record_demand(1)
        monitor.record_demand(1)
        monitor.record_miss(1, is_store=False)
        monitor.decay()
        score = monitor.scores()[1]
        assert score.accesses == 1 and score.traffic == 1
        monitor.reset()
        assert monitor.scores()[1].accesses == 0


class TestPhaseDetector:
    def make(self, sim, stats, **kwargs) -> PhaseDetector:
        defaults = dict(epoch_cycles=100, min_requests=10)
        defaults.update(kwargs)
        return PhaseDetector(sim, stats, **defaults)

    def test_detects_a_hit_rate_phase_change(self):
        sim, stats = Simulator(), StatsCollector()
        detector = self.make(sim, stats)
        changes: list = []
        detector.add_listener(changes.append)

        requests = stats.counter("gpu.mem_requests")
        hits = stats.counter("l2.hits")
        accesses = stats.counter("l2.accesses")
        stats.counter("gpu.vector_ops").add(100)

        detector.start(lambda: sim.now < 350)
        # window 1: 100% hit rate establishes the reference phase
        requests.add(100)
        hits.add(100)
        accesses.add(100)
        sim.run(until=150)
        assert detector.current_phase is not None
        # window 2: a drop just inside the threshold is the same phase
        requests.add(100)
        hits.add(int(100 * (1.0 - HIT_RATE_DELTA)) + 1)
        accesses.add(100)
        sim.run(until=250)
        assert not changes
        # window 3: hit rate collapses -> phase change event on the queue
        requests.add(100)
        accesses.add(100)
        sim.run()
        assert len(changes) == 1
        assert stats.get("adaptive.phase_changes") == 1
        assert changes[0].hit_rate == pytest.approx(0.0)

    def test_thin_windows_merge_instead_of_firing(self):
        sim, stats = Simulator(), StatsCollector()
        detector = self.make(sim, stats, min_requests=1000)
        detector.add_listener(lambda sample: pytest.fail("no change expected"))
        stats.counter("gpu.mem_requests").add(5)
        detector.start(lambda: sim.now < 250)
        sim.run()
        assert stats.get("adaptive.phase_samples") == 0

    def test_stable_metrics_never_fire(self):
        sim, stats = Simulator(), StatsCollector()
        detector = self.make(sim, stats)
        changes: list = []
        detector.add_listener(changes.append)
        requests = stats.counter("gpu.mem_requests")
        ops = stats.counter("gpu.vector_ops")

        def feed() -> None:
            requests.add(50)
            ops.add(100)
            if sim.now < 500:
                sim.schedule(100, feed)

        feed()
        detector.start(lambda: sim.now < 500)
        sim.run()
        assert not changes
        assert stats.get("adaptive.phase_samples") > 1

    def test_double_start_raises(self):
        sim, stats = Simulator(), StatsCollector()
        detector = self.make(sim, stats)
        detector.start(lambda: False)
        with pytest.raises(RuntimeError):
            detector.start(lambda: False)


#: the reference phase the shared phase test is probed around
REFERENCE = PhaseSample(
    cycle=1_000, requests=500, arithmetic_intensity=2.0, hit_rate=0.5, write_fraction=0.3
)


def shifted(metric: str, sign: int, fraction_of_threshold: float) -> PhaseSample:
    """REFERENCE with one metric moved by a fraction of its threshold."""
    if metric == "arithmetic_intensity":  # relative threshold
        step = REFERENCE.arithmetic_intensity * INTENSITY_DELTA
    elif metric == "hit_rate":
        step = HIT_RATE_DELTA
    else:
        step = WRITE_FRACTION_DELTA
    value = getattr(REFERENCE, metric) + sign * step * fraction_of_threshold
    return replace(REFERENCE, **{metric: value})


class TestPhaseChanged:
    """The one phase test the detector and the fast-forward sampler share."""

    @pytest.mark.parametrize(
        "fraction,fires", [(0.9, False), (1.1, True)], ids=["inside", "beyond"]
    )
    @pytest.mark.parametrize("sign", [1, -1], ids=["up", "down"])
    @pytest.mark.parametrize("metric", ["arithmetic_intensity", "hit_rate", "write_fraction"])
    def test_each_metric_fires_only_beyond_its_threshold(self, metric, sign, fraction, fires):
        assert phase_changed(REFERENCE, shifted(metric, sign, fraction)) is fires

    def test_identical_metrics_are_one_phase(self):
        assert not phase_changed(REFERENCE, REFERENCE)

    def test_window_position_and_size_are_not_metrics(self):
        later = replace(REFERENCE, cycle=10**9, requests=10**6)
        assert not phase_changed(REFERENCE, later)

    def test_intensity_compares_relatively_down_to_a_tiny_floor(self):
        """A compute-free reference phase compares against a tiny floor,
        not zero, and small intensities still compare relatively."""
        idle = replace(REFERENCE, arithmetic_intensity=0.0)
        assert not phase_changed(idle, replace(idle, arithmetic_intensity=1e-10))
        assert phase_changed(idle, replace(idle, arithmetic_intensity=1.0))
        sparse = replace(REFERENCE, arithmetic_intensity=0.01)
        assert phase_changed(sparse, replace(sparse, arithmetic_intensity=0.02))


def make_engine(adaptive: AdaptiveConfig, stats=None) -> DynamicPolicyEngine:
    return DynamicPolicyEngine(adaptive, l2_config=L2, stats=stats or StatsCollector())


class TestDynamicPolicyEngine:
    def test_leader_sets_override_the_active_policy(self):
        config = AdaptiveConfig(initial_index=0, leader_sets_per_policy=1)
        engine = make_engine(config)
        assert engine.active_policy is UNCACHED
        # set 1 is CacheR's leader in constituency 0 (identity order)
        leader_request = engine.annotate(load(1 * 64))
        assert not leader_request.bypass_l2 and not leader_request.bypass_l1
        # a follower load obeys the active policy (Uncached -> bypass all)
        follower_set = next(
            s for s in range(L2.num_sets) if engine.monitor.leader_index(s) is None
        )
        follower_request = engine.annotate(load(follower_set * 64))
        assert follower_request.bypass_l2 and follower_request.bypass_l1

    def test_stores_always_bypass_l1(self):
        engine = make_engine(AdaptiveConfig())
        request = engine.annotate(store(0))
        assert request.bypass_l1

    def test_swap_changes_only_the_followers(self):
        config = AdaptiveConfig(initial_index=0, leader_sets_per_policy=1)
        engine = make_engine(config)
        follower_set = next(
            s for s in range(L2.num_sets) if engine.monitor.leader_index(s) is None
        )
        engine.set_active(1)  # CacheR
        assert engine.active_policy is CACHE_R
        assert not engine.annotate(load(follower_set * 64)).bypass_l2
        # the Uncached leader set still bypasses
        uncached_leader = next(
            s for s in range(L2.num_sets) if engine.monitor.leader_index(s) == 0
        )
        assert engine.annotate(load(uncached_leader * 64)).bypass_l2

    def test_annotation_records_leader_demand(self):
        stats = StatsCollector()
        engine = make_engine(AdaptiveConfig(leader_sets_per_policy=1), stats)
        engine.annotate(load(0))
        assert stats.get("adaptive.duel.Uncached.leader_accesses") == 1

    def test_committed_engine_annotates_like_the_static_engine(self):
        engine = make_engine(AdaptiveConfig(initial_index=2))  # CacheRW
        engine.set_exploring(False)
        for set_index in range(L2.num_sets):
            request = engine.annotate(store(set_index * 64))
            assert request.bypass_l1 and not request.bypass_l2

    def test_describe_reports_adaptive_state(self):
        engine = make_engine(AdaptiveConfig())
        summary = engine.describe()
        assert summary["adaptive"] is True
        assert summary["active_policy"] == "CacheR"


class TestDynamicPolicyController:
    def make(self, config: AdaptiveConfig):
        sim, stats = Simulator(), StatsCollector()
        engine = make_engine(config, stats)
        detector = PhaseDetector(sim, stats, epoch_cycles=config.epoch_cycles)
        controller = DynamicPolicyController(engine, detector, sim, stats)
        return controller, engine, stats

    def feed(self, monitor, candidate: int, accesses: int, cost: int) -> None:
        set_index = next(
            s for s in range(L2.num_sets) if monitor.leader_index(s) == candidate
        )
        for _ in range(accesses):
            monitor.record_demand(candidate)
        for _ in range(cost // 2):
            monitor.record_miss(set_index, is_store=False)

    def test_switches_to_a_clearly_better_challenger(self):
        config = AdaptiveConfig(
            initial_index=0, min_leader_accesses=10, commit_decisions=0
        )
        controller, engine, stats = self.make(config)
        self.feed(controller.monitor, 0, accesses=20, cost=40)  # 2.0 per access
        self.feed(controller.monitor, 1, accesses=20, cost=10)  # 0.5 per access
        self.feed(controller.monitor, 2, accesses=20, cost=40)
        controller._decide()
        assert engine.active_policy is CACHE_R
        assert stats.get("adaptive.switches") == 1
        assert controller.history[-1][1] == "CacheR"

    def test_keeps_incumbent_without_enough_evidence(self):
        config = AdaptiveConfig(initial_index=0, min_leader_accesses=100)
        controller, engine, _ = self.make(config)
        self.feed(controller.monitor, 0, accesses=20, cost=40)
        self.feed(controller.monitor, 1, accesses=20, cost=2)
        self.feed(controller.monitor, 2, accesses=20, cost=40)
        controller._decide()
        assert engine.active_policy is UNCACHED

    def test_hysteresis_blocks_marginal_challengers(self):
        config = AdaptiveConfig(
            initial_index=0, min_leader_accesses=10, hysteresis=0.5, commit_decisions=0
        )
        controller, engine, _ = self.make(config)
        self.feed(controller.monitor, 0, accesses=20, cost=40)
        self.feed(controller.monitor, 1, accesses=20, cost=30)  # only 25% better
        self.feed(controller.monitor, 2, accesses=20, cost=40)
        controller._decide()
        assert engine.active_policy is UNCACHED

    def test_stable_duel_commits_and_kernel_boundary_reopens(self):
        config = AdaptiveConfig(
            initial_index=1, min_leader_accesses=5, commit_decisions=2
        )
        controller, engine, stats = self.make(config)
        for _ in range(2):
            self.feed(controller.monitor, 0, accesses=10, cost=40)
            self.feed(controller.monitor, 1, accesses=10, cost=2)
            self.feed(controller.monitor, 2, accesses=10, cost=40)
            controller._decide()
        assert not engine.exploring, "two stable decisions must commit"
        assert not controller.monitor.enabled
        assert stats.get("adaptive.commits") == 1
        controller.on_kernel_boundary()
        assert engine.exploring, "a kernel boundary reopens exploration"
        assert stats.get("adaptive.explorations") == 1
        assert controller.monitor.scores()[1].accesses == 0, "stale evidence cleared"

    def test_phase_change_reopens_a_committed_duel_even_without_mid_kernel(self):
        """Default config: a phase change must not leave a stale commit."""
        config = AdaptiveConfig(
            initial_index=1, min_leader_accesses=5, commit_decisions=1,
            mid_kernel_switching=False,
        )
        controller, engine, stats = self.make(config)
        self.feed(controller.monitor, 0, accesses=10, cost=40)
        self.feed(controller.monitor, 1, accesses=10, cost=2)
        self.feed(controller.monitor, 2, accesses=10, cost=40)
        controller._decide()
        assert not engine.exploring
        controller._on_phase_change(None)
        assert engine.exploring, "a phase change must re-open exploration"
        # but with mid_kernel_switching off an open duel is not re-decided
        decisions_before = stats.get("adaptive.decisions")
        controller._on_phase_change(None)
        assert stats.get("adaptive.decisions") == decisions_before

    def test_pinned_controller_never_duels(self):
        config = AdaptiveConfig(candidates=(CACHE_RW,))
        controller, engine, stats = self.make(config)
        assert not engine.exploring
        controller.on_kernel_boundary()
        controller._decide()
        assert stats.get("adaptive.decisions") == 0
        assert stats.get("adaptive.switches") == 0
        assert stats.get("adaptive.kernels_under.CacheRW") == 1

    def test_kernel_accounting_follows_the_active_policy(self):
        config = AdaptiveConfig(initial_index=0)
        controller, engine, stats = self.make(config)
        controller.on_kernel_boundary()
        engine.set_active(2)
        controller.on_kernel_boundary()
        assert stats.get("adaptive.kernels_under.Uncached") == 1
        assert stats.get("adaptive.kernels_under.CacheRW") == 1
