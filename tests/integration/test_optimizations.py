"""Integration tests for the three caching optimizations (paper section VII)."""

from __future__ import annotations

import pytest

from repro.config import scaled_config
from repro.core.policies import CACHE_RW, CACHE_RW_AB, CACHE_RW_CR, CACHE_RW_PCBY, UNCACHED
from repro.session import simulate
from repro.workloads.registry import get_workload

TINY = scaled_config(2)
SCALE = 0.2


@pytest.fixture(scope="module")
def streaming_reports():
    """FwAct (no reuse, high bandwidth) under the optimization stack."""
    workload_name = "FwAct"
    reports = {}
    for policy in (UNCACHED, CACHE_RW, CACHE_RW_AB, CACHE_RW_CR, CACHE_RW_PCBY):
        reports[policy.name] = simulate(
            get_workload(workload_name, scale=SCALE), policy, config=TINY
        )
    return reports


@pytest.fixture(scope="module")
def coalescing_reports():
    """BwPool (write coalescing opportunity) under the optimization stack."""
    reports = {}
    for policy in (UNCACHED, CACHE_RW, CACHE_RW_AB, CACHE_RW_CR, CACHE_RW_PCBY):
        reports[policy.name] = simulate(
            get_workload("BwPool", scale=SCALE), policy, config=TINY
        )
    return reports


class TestAllocationBypass:
    def test_reduces_allocation_stalls(self, streaming_reports):
        blocking = streaming_reports["CacheRW"]
        bypassing = streaming_reports["CacheRW-AB"]
        assert bypassing.get("l1.stall_cycles_alloc") < blocking.get("l1.stall_cycles_alloc")
        assert bypassing.cache_stalls_per_request < blocking.cache_stalls_per_request

    def test_records_converted_bypasses(self, streaming_reports):
        assert streaming_reports["CacheRW-AB"].get("l1.allocation_bypasses") > 0

    def test_does_not_change_request_count(self, streaming_reports):
        assert (
            streaming_reports["CacheRW-AB"].gpu_mem_requests
            == streaming_reports["CacheRW"].gpu_mem_requests
        )

    def test_never_blocks_when_enabled(self, streaming_reports):
        assert streaming_reports["CacheRW-AB"].get("l1.blocked_set_busy", 0) == 0
        assert streaming_reports["CacheRW-AB"].get("l2.blocked_set_busy", 0) == 0


class TestCacheRinsing:
    def test_improves_row_hit_rate_for_write_heavy_workload(self, coalescing_reports):
        without = coalescing_reports["CacheRW-AB"]
        with_rinse = coalescing_reports["CacheRW-CR"]
        assert with_rinse.dram_row_hit_rate >= without.dram_row_hit_rate

    def test_rinse_writebacks_are_reported(self, coalescing_reports):
        report = coalescing_reports["CacheRW-CR"]
        # rinsing either triggered on evictions or everything was flushed
        assert report.get("l2.rinse_writebacks") >= 0
        assert report.dram_writes > 0

    def test_does_not_lose_writes(self, coalescing_reports):
        # every distinct dirty line must still reach DRAM at least once
        baseline = coalescing_reports["CacheRW-AB"]
        rinsed = coalescing_reports["CacheRW-CR"]
        assert rinsed.dram_writes <= baseline.dram_writes * 1.2
        assert rinsed.dram_writes > 0


class TestPcBypass:
    def test_predictor_bypasses_streaming_pcs(self, streaming_reports):
        report = streaming_reports["CacheRW-PCby"]
        assert report.get("l2.predictor_bypasses") > 0

    def test_streaming_workload_recovers_toward_uncached(self, streaming_reports):
        uncached = streaming_reports["Uncached"].cycles
        pcby = streaming_reports["CacheRW-PCby"].cycles
        cacherw = streaming_reports["CacheRW"].cycles
        # the full stack should be no worse than plain CacheRW and close to Uncached
        assert pcby <= cacherw * 1.05
        assert pcby <= uncached * 1.30

    def test_reuse_workload_keeps_most_of_its_benefit(self):
        # FwSoft re-reads its (small) tensor three times inside the kernel, so
        # even at test scale the predictor should preserve a DRAM reduction
        workload = "FwSoft"
        uncached = simulate(get_workload(workload, scale=SCALE), UNCACHED, config=TINY)
        pcby = simulate(get_workload(workload, scale=SCALE), CACHE_RW_PCBY, config=TINY)
        assert pcby.dram_accesses < uncached.dram_accesses
        assert pcby.cycles < uncached.cycles * 1.1

    def test_predictor_statistics_exposed_via_policy_engine(self):
        from repro.session import SimulationSession

        session = SimulationSession(policy=CACHE_RW_PCBY, config=TINY)
        session.run(get_workload("FwAct", scale=0.1))
        description = session.policy_engine.describe()
        assert description["pc_bypass"] is True
        assert description["predictor_bypass_fraction"] is not None

    @pytest.mark.parametrize(("policy", "tracked"), [(CACHE_RW_CR, 0), (CACHE_RW, None)])
    def test_dbi_rows_exposed_via_hierarchy(self, policy, tracked):
        # an empty index (every dirty line flushed at the last kernel
        # boundary) reports 0 rows; a policy without rinsing has no index
        from repro.session import SimulationSession

        session = SimulationSession(policy=policy, config=TINY)
        session.run(get_workload("FwAct", scale=0.1))
        assert session.hierarchy.describe()["dbi_tracked_rows"] == tracked
