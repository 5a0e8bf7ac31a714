"""Tests for the core policy machinery: policies, DBI, predictor, engine
and classification."""

from __future__ import annotations

import pytest

from repro.core.classification import PAPER_CATEGORIES, WorkloadCategory, classify
from repro.core.dirty_block_index import DirtyBlockIndex
from repro.core.policies import (
    ALL_POLICIES,
    CACHE_R,
    CACHE_RW,
    CACHE_RW_AB,
    CACHE_RW_CR,
    CACHE_RW_PCBY,
    STATIC_POLICIES,
    UNCACHED,
    policy_by_name,
)
from repro.core.policy_engine import PolicyEngine
from repro.core.reuse_predictor import PredictorConfig, ReusePredictor
from repro.memory.request import AccessType, MemoryRequest


class TestPolicySpecs:
    def test_uncached_bypasses_everything(self):
        assert not (UNCACHED.cache_loads_l1 or UNCACHED.cache_loads_l2)
        assert not UNCACHED.cache_stores_l2

    def test_cache_r_caches_loads_only(self):
        assert CACHE_R.cache_loads_l1 and CACHE_R.cache_loads_l2
        assert not CACHE_R.cache_stores_l2

    def test_cache_rw_adds_store_combining(self):
        assert CACHE_RW.cache_loads_l1 and CACHE_RW.cache_stores_l2

    def test_static_policies_have_no_optimizations(self):
        for policy in STATIC_POLICIES:
            assert not (policy.allocation_bypass or policy.cache_rinsing or policy.pc_bypass)

    def test_optimizations_stack_cumulatively(self):
        assert CACHE_RW_AB.allocation_bypass and not CACHE_RW_AB.cache_rinsing
        assert CACHE_RW_CR.allocation_bypass and CACHE_RW_CR.cache_rinsing
        assert CACHE_RW_PCBY.allocation_bypass and CACHE_RW_PCBY.cache_rinsing
        assert CACHE_RW_PCBY.pc_bypass

    def test_policy_by_name_case_insensitive(self):
        assert policy_by_name("cacherw-pcby") is CACHE_RW_PCBY
        assert policy_by_name("UNCACHED") is UNCACHED

    def test_policy_by_name_unknown_raises(self):
        with pytest.raises(KeyError):
            policy_by_name("WriteBackEverything")

    def test_with_optimizations_returns_new_spec(self):
        derived = CACHE_RW.with_optimizations(allocation_bypass=True, name="X")
        assert derived.allocation_bypass and derived.name == "X"
        assert not CACHE_RW.allocation_bypass  # original untouched

    def test_all_policies_have_unique_names(self):
        names = [p.name for p in ALL_POLICIES]
        assert len(names) == len(set(names))


class TestDirtyBlockIndex:
    def test_mark_and_query(self):
        dbi = DirtyBlockIndex(row_of=lambda a: a // 1024)
        dbi.mark_dirty(0)
        dbi.mark_dirty(64)
        dbi.mark_dirty(2048)
        assert dbi.is_dirty(0) and dbi.is_dirty(64)
        assert dbi.dirty_lines_in_row(0) == [0, 64]
        assert dbi.dirty_lines_in_row(2) == [2048]
        assert dbi.dirty_count() == 3

    def test_clear_is_idempotent(self):
        dbi = DirtyBlockIndex(row_of=lambda a: 0)
        dbi.mark_dirty(0)
        dbi.clear(0)
        dbi.clear(0)
        assert not dbi.is_dirty(0)
        assert len(dbi) == 0

    def test_mark_same_line_twice_counts_once(self):
        dbi = DirtyBlockIndex(row_of=lambda a: 0)
        dbi.mark_dirty(64)
        dbi.mark_dirty(64)
        assert dbi.dirty_count() == 1

    def test_row_lines_come_back_sorted_whatever_the_marking_order(self):
        dbi = DirtyBlockIndex(row_of=lambda a: a // 1024)
        for address in (960, 64, 512, 0):
            dbi.mark_dirty(address)
        assert dbi.dirty_lines_in_row(0) == [0, 64, 512, 960]
        assert dbi.dirty_lines_in_row(7) == []

    def test_unbounded_rows_are_all_kept(self):
        # the index is idealized: no row is ever dropped to make room
        dbi = DirtyBlockIndex(row_of=lambda a: a // 1024)
        for row in range(256):
            dbi.mark_dirty(row * 1024)
        assert len(dbi) == 256
        assert all(dbi.is_dirty(row * 1024) for row in range(256))

    def test_clearing_a_rows_last_line_drops_the_row(self):
        dbi = DirtyBlockIndex(row_of=lambda a: a // 1024)
        dbi.mark_dirty(0)
        dbi.mark_dirty(1024)
        dbi.clear(0)
        assert list(dbi.rows()) == [1]


class TestReusePredictor:
    def test_default_predicts_bypass_for_unknown_pc(self):
        predictor = ReusePredictor()
        assert predictor.should_bypass(0x1234)

    def test_reuse_training_promotes_pc_to_cached(self):
        predictor = ReusePredictor(PredictorConfig(bypass_threshold=2, initial_value=1))
        pc = 0x400
        assert predictor.should_bypass(pc)
        predictor.train_reuse(pc)
        assert not predictor.should_bypass(pc)

    def test_dead_eviction_training_demotes_pc(self):
        predictor = ReusePredictor(PredictorConfig(bypass_threshold=2, initial_value=3))
        pc = 0x800
        assert not predictor.should_bypass(pc)
        predictor.train_eviction(pc, reused=False)
        predictor.train_eviction(pc, reused=False)
        assert predictor.should_bypass(pc)

    def test_counters_saturate_at_bounds(self):
        config = PredictorConfig(counter_bits=2, bypass_threshold=2, initial_value=0)
        predictor = ReusePredictor(config)
        pc = 0x10
        for _ in range(20):
            predictor.train_reuse(pc)
        assert predictor.counter(pc) == config.max_value
        for _ in range(20):
            predictor.train_eviction(pc, reused=False)
        assert predictor.counter(pc) == 0

    def test_bypass_fraction_tracks_predictions(self):
        predictor = ReusePredictor(PredictorConfig(initial_value=0))
        for _ in range(10):
            predictor.should_bypass(0x100)
        assert predictor.bypass_fraction() == pytest.approx(1.0)

    def test_distinct_pcs_use_distinct_counters(self):
        predictor = ReusePredictor(PredictorConfig(initial_value=1, bypass_threshold=2))
        predictor.train_reuse(0x1000)
        assert not predictor.should_bypass(0x1000)
        assert predictor.should_bypass(0x2000)

    def test_invalid_table_size_rejected(self):
        with pytest.raises(ValueError):
            PredictorConfig(table_entries=100)

    def test_threshold_must_fit_counter(self):
        with pytest.raises(ValueError):
            PredictorConfig(counter_bits=2, bypass_threshold=9)


class TestPolicyEngine:
    def _load(self) -> MemoryRequest:
        return MemoryRequest(access=AccessType.LOAD, address=0, pc=0x1)

    def _store(self) -> MemoryRequest:
        return MemoryRequest(access=AccessType.STORE, address=0, pc=0x2)

    def test_uncached_marks_everything_bypass(self):
        engine = PolicyEngine(UNCACHED)
        load = engine.annotate(self._load())
        store = engine.annotate(self._store())
        assert load.bypass_l1 and load.bypass_l2
        assert store.bypass_l1 and store.bypass_l2

    def test_cache_r_caches_loads_but_not_stores(self):
        engine = PolicyEngine(CACHE_R)
        load = engine.annotate(self._load())
        store = engine.annotate(self._store())
        assert not load.bypass_l1 and not load.bypass_l2
        assert store.bypass_l1 and store.bypass_l2

    def test_cache_rw_sends_stores_to_l2(self):
        engine = PolicyEngine(CACHE_RW)
        store = engine.annotate(self._store())
        assert store.bypass_l1 and not store.bypass_l2

    def test_stores_always_bypass_l1(self):
        for policy in ALL_POLICIES:
            engine = PolicyEngine(policy)
            assert engine.annotate(self._store()).bypass_l1

    def test_optimization_components_created_on_demand(self):
        plain = PolicyEngine(CACHE_RW)
        assert plain.reuse_predictor is None
        optimized = PolicyEngine(CACHE_RW_PCBY)
        assert optimized.reuse_predictor is not None
        assert optimized.allocation_bypass

    def test_describe_reports_policy_name(self):
        engine = PolicyEngine(CACHE_R)
        assert engine.describe()["policy"] == "CacheR"


class TestClassification:
    def test_insensitive_when_within_band(self):
        result = classify({"Uncached": 100.0, "CacheR": 98.0, "CacheRW": 103.0})
        assert result is WorkloadCategory.MEMORY_INSENSITIVE

    def test_reuse_sensitive_when_caching_helps(self):
        result = classify({"Uncached": 100.0, "CacheR": 80.0, "CacheRW": 75.0})
        assert result is WorkloadCategory.REUSE_SENSITIVE

    def test_throughput_sensitive_when_caching_hurts(self):
        result = classify({"Uncached": 100.0, "CacheR": 115.0, "CacheRW": 120.0})
        assert result is WorkloadCategory.THROUGHPUT_SENSITIVE

    def test_mixed_results_count_as_reuse_sensitive(self):
        # the paper classifies by whether *some* caching policy helps
        result = classify({"Uncached": 100.0, "CacheR": 120.0, "CacheRW": 70.0})
        assert result is WorkloadCategory.REUSE_SENSITIVE

    def test_custom_band(self):
        times = {"Uncached": 100.0, "CacheR": 93.0, "CacheRW": 100.0}
        assert classify(times, band=0.10) is WorkloadCategory.MEMORY_INSENSITIVE
        assert classify(times, band=0.02) is WorkloadCategory.REUSE_SENSITIVE

    def test_missing_baseline_raises(self):
        with pytest.raises(KeyError):
            classify({"CacheR": 1.0})

    def test_paper_categories_cover_all_registered_workloads(self):
        # the paper's 17 plus the beyond-paper MHA entry
        assert len(PAPER_CATEGORIES) == 18
        assert PAPER_CATEGORIES["FwAct"] is WorkloadCategory.THROUGHPUT_SENSITIVE
        assert PAPER_CATEGORIES["SGEMM"] is WorkloadCategory.MEMORY_INSENSITIVE
        assert PAPER_CATEGORIES["FwFc"] is WorkloadCategory.REUSE_SENSITIVE
        assert PAPER_CATEGORIES["MHA"] is WorkloadCategory.REUSE_SENSITIVE
