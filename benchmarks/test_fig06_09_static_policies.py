"""Figures 6-9: the three static caching policies across all 17 workloads.

Shape assertions encode the paper's headline qualitative claims:

* the workload categories of Figure 6 (insensitive / reuse sensitive /
  throughput sensitive) emerge from the measured execution times;
* caching reduces DRAM traffic for the reuse-sensitive workloads (Figure 7);
* enabling caching raises cache stalls by orders of magnitude (Figure 8);
* caching disturbs DRAM row locality for the streaming workloads (Figure 9).
"""

from __future__ import annotations

import pytest

from repro.core.classification import PAPER_CATEGORIES, WorkloadCategory
from repro.experiments import figure, measured_categories, render_series_table
from repro.workloads.registry import WORKLOAD_NAMES

from benchmarks.conftest import run_once


def test_figure6_execution_time(benchmark, bench_runner):
    data = run_once(benchmark, figure, 6, bench_runner)
    print()
    print(render_series_table("Figure 6: execution time normalized to Uncached", data,
                              workload_order=WORKLOAD_NAMES))
    categories = measured_categories(bench_runner)
    print("Measured categories vs paper:")
    matches = 0
    for name in WORKLOAD_NAMES:
        expected = PAPER_CATEGORIES[name]
        got = categories[name]
        matches += expected is got
        print(f"  {name:10s} paper={expected.value:22s} measured={got.value}")
    # the category structure should largely reproduce (allow a few borderline shifts)
    assert matches >= 10
    # headline cases
    assert categories["FwFc"] is WorkloadCategory.REUSE_SENSITIVE
    assert categories["BwPool"] is WorkloadCategory.REUSE_SENSITIVE
    assert data["FwAct"]["CacheRW"] >= 0.97
    assert data["SGEMM"]["CacheR"] == pytest.approx(1.0, abs=0.06)


def test_figure7_dram_accesses(benchmark, bench_runner):
    data = run_once(benchmark, figure, 7, bench_runner)
    print()
    print(render_series_table("Figure 7: DRAM accesses normalized to Uncached", data,
                              workload_order=WORKLOAD_NAMES))
    # read caching removes a large share of GEMM / FC / softmax traffic
    assert data["SGEMM"]["CacheR"] < 0.7
    assert data["FwFc"]["CacheR"] < 0.7
    assert data["FwSoft"]["CacheR"] < 0.7
    # streaming activations have nothing to gain
    assert data["FwAct"]["CacheR"] == pytest.approx(1.0, abs=0.02)
    # write combining additionally removes DRAM writes for BwPool / BwBN
    assert data["BwPool"]["CacheRW"] < data["BwPool"]["CacheR"]
    assert data["BwBN"]["CacheRW"] < data["BwBN"]["CacheR"]


def test_figure8_cache_stalls(benchmark, bench_runner):
    data = run_once(benchmark, figure, 8, bench_runner)
    print()
    print(render_series_table("Figure 8: cache stalls per GPU memory request", data,
                              workload_order=WORKLOAD_NAMES))
    for name in WORKLOAD_NAMES:
        # enabling caching never reduces stalls below the bypass configuration
        assert data[name]["Uncached"] <= data[name]["CacheR"] + 1e-9
    # the streaming layers suffer the largest stall counts (orders of magnitude)
    assert data["FwAct"]["CacheR"] > 100 * max(data["FwAct"]["Uncached"], 0.001)


def test_figure9_row_hit_rate(benchmark, bench_runner):
    data = run_once(benchmark, figure, 9, bench_runner)
    print()
    print(render_series_table("Figure 9: DRAM row-buffer hit ratio", data,
                              workload_order=WORKLOAD_NAMES))
    for name in WORKLOAD_NAMES:
        for value in data[name].values():
            assert 0.0 <= value <= 1.0
    # caching disturbs the regular streaming pattern of the pooling layer
    assert data["FwPool"]["CacheR"] <= data["FwPool"]["Uncached"] + 0.02
