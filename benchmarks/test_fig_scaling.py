"""The device-scaling figure: cache policies across 1/2/4-device systems.

The acceptance measurement of the topology subsystem: the static policies
across 1/2/4-device NUMA systems on the fabric-sensitive workload subset
(GEMMs, an RNN, and MHA).  Strong scaling -- a fixed workload is split
across N devices, each adding CUs, an L2 slice and a DRAM partition -- so
the headroom between the measured geomean speedup and the ideal N is what
the fabric latency, fabric bandwidth and remote-traffic fraction cost.

Like every figure bench this runs through the shared session runner:
topology cells persist in the same store under fingerprints that include
the :class:`~repro.topology.config.TopologyConfig`, so a warm harness
repeat simulates nothing.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.policies import STATIC_POLICIES
from repro.experiments import (
    SCALING_COLUMNS,
    artifact,
    figure_scaling,
    render_series_table,
    series,
    summarize,
)
from repro.experiments.scaling import SCALING_DEVICES, SCALING_WORKLOADS

from benchmarks.conftest import run_once

#: figure data lands next to BENCH_core.json for the CI artifact upload
SCALING_PATH = Path(__file__).resolve().parents[1] / "scaling_figure.json"


def test_figure_scaling(benchmark, bench_runner):
    data = run_once(
        benchmark,
        figure_scaling,
        bench_runner,
        devices=SCALING_DEVICES,
        policies=STATIC_POLICIES,
        workload_names=SCALING_WORKLOADS,
    )
    summary = summarize(data, SCALING_COLUMNS)
    print()
    print(render_series_table(
        "Device scaling: speedup over the same policy at 1 device",
        series(data, "speedup"),
    ))
    print(render_series_table(
        "Device scaling: remote traffic fraction",
        series(data, "remote_fraction"),
    ))
    print(render_series_table(
        "Device scaling summary (geomean speedup / mean remote fraction)", summary
    ))
    SCALING_PATH.write_text(
        json.dumps(
            artifact(
                "figure_scaling",
                data,
                summary,
                devices=list(SCALING_DEVICES),
                workloads=list(SCALING_WORKLOADS),
            ),
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )

    for workload, cells in data.items():
        for policy in STATIC_POLICIES:
            # the 1-device cells anchor the normalization
            assert cells[f"{policy.name}@1dev"]["speedup"] == 1.0
            assert cells[f"{policy.name}@1dev"]["remote_fraction"] == 0.0
            for count in SCALING_DEVICES[1:]:
                cell = cells[f"{policy.name}@{count}dev"]
                # interleaved partitions must produce cross-device traffic...
                assert cell["remote_fraction"] > 0.0, (
                    f"{workload} {policy.name}@{count}dev saw no remote traffic"
                )
                # ...bounded by the uniform-interleave expectation
                assert cell["remote_fraction"] <= (count - 1) / count + 0.05
    # splitting the work across more devices must help somewhere: the
    # geomean speedup of the best series at the top device count clears 1
    top = SCALING_DEVICES[-1]
    best = max(
        summary[f"{policy.name}@{top}dev"]["speedup_geomean"]
        for policy in STATIC_POLICIES
    )
    assert best > 1.0, f"no policy scaled past 1.0x at {top} devices: {best:.3f}"
