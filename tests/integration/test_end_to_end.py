"""End-to-end simulation tests: GPU + hierarchy + DRAM under each policy."""

from __future__ import annotations

import pytest

from repro.config import scaled_config
from repro.core.policies import (
    ALL_POLICIES,
    CACHE_R,
    CACHE_RW,
    STATIC_POLICIES,
    UNCACHED,
)
from repro.session import SimulationSession, simulate
from repro.topology import TopologyConfig
from repro.workloads.registry import get_workload
from repro.workloads.trace import WorkloadTrace

from tests.conftest import reuse_trace, single_wave_trace, streaming_trace

TINY = scaled_config(2)


class TestBasicExecution:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_every_policy_completes_a_small_trace(self, policy):
        report = simulate(streaming_trace(128), policy, config=TINY)
        assert report.cycles > 0
        assert report.policy == policy.name
        assert report.gpu_mem_requests == 128

    def test_all_requests_reach_memory_when_uncached(self):
        report = simulate(streaming_trace(200), UNCACHED, config=TINY)
        assert report.dram_accesses == 200

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    @pytest.mark.parametrize(
        "topology", [None, TopologyConfig(num_devices=2)], ids=["one-device", "two-device"]
    )
    def test_simulation_is_deterministic(self, topology, policy):
        # one pre-built trace through two fresh sessions: the trace is not
        # consumed by a run, and the second run repeats the first event
        # for event.  A read-reuse kernel then a store kernel, so hits,
        # fills, write-allocates, rinses and writebacks all take part.
        trace = WorkloadTrace(
            name="mixed",
            kernels=[reuse_trace(96).kernels[0], streaming_trace(160, stores=True).kernels[0]],
        )
        runs = []
        for _ in range(2):
            session = SimulationSession(policy=policy, config=TINY, topology=topology)
            report = session.run(trace)
            runs.append((session.sim.queue.executed, report.cycles, report.counters))
        first, second = runs
        assert first[0] > 0
        assert first == second

    def test_store_stream_completes(self):
        report = simulate(streaming_trace(128, stores=True), CACHE_RW, config=TINY)
        assert report.dram_writes == 128  # flushed at the kernel boundary

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            simulate(WorkloadTrace(name="empty"), UNCACHED, config=TINY)

    def test_session_reuse_is_rejected_cleanly(self):
        session = SimulationSession(policy=UNCACHED, config=TINY)
        session.run(streaming_trace(16))
        # a fresh workload on the same (already advanced) session still works
        report = session.run(streaming_trace(16, name="again"))
        assert report.cycles > 0


class TestCachingBehaviour:
    def test_reuse_trace_hits_under_cache_r(self):
        report = simulate(reuse_trace(32, passes=4), CACHE_R, config=TINY)
        assert report.dram_accesses == 32  # only compulsory misses
        assert report.l1_hits > 0

    def test_reuse_trace_misses_when_uncached(self):
        cached = simulate(reuse_trace(32, passes=4), CACHE_R, config=TINY)
        uncached = simulate(reuse_trace(32, passes=4), UNCACHED, config=TINY)
        assert uncached.dram_accesses > cached.dram_accesses

    def test_streaming_trace_gains_nothing_from_caching(self):
        cached = simulate(streaming_trace(256), CACHE_R, config=TINY)
        uncached = simulate(streaming_trace(256), UNCACHED, config=TINY)
        assert cached.dram_accesses == uncached.dram_accesses

    def test_write_combining_reduces_dram_writes(self):
        # the same line stored many times within one kernel
        from repro.memory.request import AccessType
        from repro.workloads.trace import MemInstr

        instructions = [MemInstr(AccessType.STORE, (0,), pc=0x30) for _ in range(32)]
        trace = single_wave_trace(instructions, name="storespin")
        combined = simulate(trace, CACHE_RW, config=TINY)
        through = simulate(trace, CACHE_R, config=TINY)
        assert combined.dram_writes < through.dram_writes

    def test_kernel_boundary_invalidation_limits_cross_kernel_l1_reuse(self):
        from repro.memory.request import AccessType
        from repro.workloads.trace import KernelTrace, MemInstr, WavefrontProgram, WorkloadTrace

        def kernel(name: str) -> KernelTrace:
            program = WavefrontProgram(
                instructions=[MemInstr(AccessType.LOAD, (i * 64,), pc=0x50) for i in range(16)]
            )
            return KernelTrace(name, [program])

        trace = WorkloadTrace("two_kernels", [kernel("k0"), kernel("k1")])
        report = simulate(trace, CACHE_R, config=TINY)
        # the L1 is invalidated between kernels, so kernel 1 misses there,
        # but the shared L2 retains the lines
        assert report.get("l1.self_invalidations") > 0
        assert report.l2_hits >= 16

    def test_exec_time_counts_all_kernels(self):
        single = simulate(streaming_trace(64), UNCACHED, config=TINY)
        from repro.workloads.trace import WorkloadTrace

        double_trace = WorkloadTrace(
            "double",
            [streaming_trace(64).kernels[0], streaming_trace(64, name="s2").kernels[0]],
        )
        double = simulate(double_trace, UNCACHED, config=TINY)
        assert double.cycles > single.cycles
        assert double.kernels == 2


class TestReportConsistency:
    @pytest.mark.parametrize("policy", STATIC_POLICIES, ids=lambda p: p.name)
    def test_counters_are_internally_consistent(self, policy):
        workload = get_workload("FwSoft", scale=0.1)
        report = simulate(workload, policy, config=TINY)
        assert report.dram_accesses == report.dram_reads + report.dram_writes
        assert report.get("l1.accesses") == report.gpu_mem_requests
        assert 0.0 <= report.dram_row_hit_rate <= 1.0
        assert 0.0 <= report.l1_hit_rate <= 1.0
        assert report.cache_stall_cycles >= 0

    def test_dram_traffic_never_exceeds_issued_requests_plus_writebacks(self):
        workload = get_workload("FwBN", scale=0.1)
        report = simulate(workload, CACHE_RW, config=TINY)
        writebacks = report.get("l2.writebacks")
        assert report.dram_accesses <= report.gpu_mem_requests + writebacks

    def test_gvops_positive_when_compute_present(self):
        report = simulate(get_workload("SGEMM", scale=0.2), CACHE_R, config=TINY)
        assert report.gvops > 0
        assert report.gmrs > 0

    @pytest.mark.parametrize("workload", ["FwGRU", "FwBwGRU"])
    def test_mshr_files_count_every_coalesced_request(self, workload):
        # write-back store merges into an outstanding miss go through the
        # MSHR file like load merges, so the file's tally matches the
        # counter (these runs merge stores into L2 misses)
        session = SimulationSession(policy=CACHE_RW, config=scaled_config(4))
        report = session.run(get_workload(workload, scale=0.5))
        hierarchy = session.hierarchy
        assert report.get("l2.store_coalesced_on_miss") > 0
        assert hierarchy.l2.mshrs.total_coalesced == report.get("l2.mshr_coalesced")
        l1_total = sum(cache.mshrs.total_coalesced for cache in hierarchy.l1s)
        assert l1_total == report.get("l1.mshr_coalesced")
