"""Figures 4 and 5: GVOPS and GMR/s per workload under CacheR."""

from __future__ import annotations

from repro.experiments import figure, render_series_table
from repro.workloads.registry import WORKLOAD_NAMES

from benchmarks.conftest import run_once


def test_figure4_compute_bandwidth(benchmark, bench_runner):
    data = run_once(benchmark, figure, 4, bench_runner)
    print()
    print(render_series_table("Figure 4: compute bandwidth (GVOPS), CacheR", data,
                              value_format="{:.1f}", workload_order=WORKLOAD_NAMES))
    assert set(data) == set(WORKLOAD_NAMES)
    # the GEMMs are the most compute-intensive workloads in the paper as well
    assert data["SGEMM"]["GVOPS"] > data["FwAct"]["GVOPS"]


def test_figure5_memory_request_bandwidth(benchmark, bench_runner):
    data = run_once(benchmark, figure, 5, bench_runner)
    print()
    print(render_series_table("Figure 5: memory request bandwidth (GMR/s), CacheR", data,
                              value_format="{:.4f}", workload_order=WORKLOAD_NAMES))
    # streaming activation layers demand far more request bandwidth than CM
    assert data["FwAct"]["GMR/s"] > data["CM"]["GMR/s"]
