#!/usr/bin/env python3
"""Quickstart: simulate one MI workload under the three static GPU cache policies.

This reproduces, for a single workload, the experiment behind Figures 6-9 of
"Optimizing GPU Cache Policies for MI Workloads" (IISWC 2019): the forward
fully-connected layer (FwFc) is run under Uncached, CacheR and CacheRW, and
the execution time, DRAM traffic, cache stalls and DRAM row-buffer locality
are compared.

Run with::

    python examples/quickstart.py [workload] [scale]
"""

from __future__ import annotations

import sys

from repro import default_config, get_workload
from repro.experiments import FIGURES, ExperimentRunner, figure
from repro.experiments.render import render_kv_table, render_series_table


def main() -> int:
    workload_name = sys.argv[1] if len(sys.argv) > 1 else "FwFc"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5

    config = default_config()
    print(render_kv_table("Simulated system (scaled from the paper's Table 1)", config.describe()))

    workload = get_workload(workload_name, scale=scale)
    trace = workload.build_trace()
    print(f"Workload {workload.name}: {trace.num_kernels} kernel(s), "
          f"{trace.line_requests} line requests, "
          f"{trace.footprint_bytes() / 1024:.0f} KiB footprint\n")

    # Figures 6-9 share the three static-policy runs: the runner simulates
    # each (workload, policy) cell once and serves the later figures from
    # its memo
    runner = ExperimentRunner(scale=scale, config=config, workload_names=[workload.name])
    for number in (6, 7, 8, 9):
        spec = FIGURES[number]
        print(render_series_table(spec.title, figure(number, runner),
                                  value_format=spec.value_format))
    times = figure(6, runner)[workload.name]
    print(f"Best static policy for {workload.name}: {min(times, key=times.get)}")
    print(f"({runner.runs_simulated} simulations, {runner.memo_hits} memo hits)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
