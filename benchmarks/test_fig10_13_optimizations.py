"""Figures 10-13: the cumulative optimization stack vs the static policies.

The headline claim of the paper is that allocation bypass + cache rinsing +
PC-based bypassing together match (or beat) the best static policy for
nearly every workload while avoiding the worst-case penalties.
"""

from __future__ import annotations

from repro.experiments import STATIC_WORST, figure, render_series_table
from repro.workloads.registry import WORKLOAD_NAMES

from benchmarks.conftest import run_once


def test_figure10_execution_time(benchmark, bench_runner):
    data = run_once(benchmark, figure, 10, bench_runner)
    print()
    print(render_series_table("Figure 10: execution time normalized to best static policy",
                              data, workload_order=WORKLOAD_NAMES))
    near_best = sum(1 for name in WORKLOAD_NAMES if data[name]["CacheRW-PCby"] <= 1.15)
    print(
        f"CacheRW-PCby within 15% of the best static policy for "
        f"{near_best}/{len(WORKLOAD_NAMES)} workloads"
    )
    # the full stack should track the best static policy for most workloads
    assert near_best >= 12
    # and it should avoid the worst static policy's truly bad cases (a small
    # slack absorbs the predictor's training transient on the scaled runs)
    for name in WORKLOAD_NAMES:
        assert data[name]["CacheRW-PCby"] <= max(1.25, 1.1 * data[name][STATIC_WORST])


def test_figure11_dram_accesses(benchmark, bench_runner):
    data = run_once(benchmark, figure, 11, bench_runner)
    print()
    print(render_series_table("Figure 11: DRAM accesses normalized to Uncached", data,
                              workload_order=WORKLOAD_NAMES))
    # the optimizations keep most of the traffic reduction of the best static policy
    for name in ("FwFc", "SGEMM", "FwSoft"):
        assert data[name]["CacheRW-PCby"] < 1.0


def test_figure12_cache_stalls(benchmark, bench_runner):
    data = run_once(benchmark, figure, 12, bench_runner)
    print()
    print(render_series_table("Figure 12: cache stalls per GPU memory request", data,
                              workload_order=WORKLOAD_NAMES))
    # allocation bypass removes the bulk of the stalls of the worst static policy
    for name in ("FwAct", "BwAct", "FwLRN", "FwPool"):
        assert data[name]["CacheRW-AB"] < data[name][STATIC_WORST]


def test_figure13_row_hit_rate(benchmark, bench_runner):
    data = run_once(benchmark, figure, 13, bench_runner)
    print()
    print(render_series_table("Figure 13: DRAM row-buffer hit ratio", data,
                              workload_order=WORKLOAD_NAMES))
    # cache rinsing restores (or improves) row locality relative to plain AB
    for name in ("FwAct", "BwAct", "FwLRN", "BwPool"):
        assert data[name]["CacheRW-CR"] >= data[name]["CacheRW-AB"] - 0.02
