"""The multi-tenant interference figure: serving mixes under cache policies.

The acceptance measurement of the stream subsystem: every registered
serving mix under the caching baseline and the paper's bypass/rinse
optimizations, in both CU-share modes, reported as per-tenant slowdown vs
solo execution and unfairness.  Like every figure bench this runs through
the shared session runner: mix cells persist in the same store under
fingerprints that cover the full stream configurations, and the solo
baselines are ordinary single-workload cells shared with the other
figures, so a warm harness repeat simulates nothing.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import (
    INTERFERENCE_COLUMNS,
    artifact,
    figure_interference,
    render_series_table,
    series,
    summarize,
)
from repro.experiments.interference import CU_MODES, INTERFERENCE_POLICIES
from repro.streams import SERVING_MIXES

from benchmarks.conftest import run_once

#: figure data lands next to BENCH_core.json for the CI artifact upload
INTERFERENCE_PATH = Path(__file__).resolve().parents[1] / "interference_figure.json"


def test_figure_interference(benchmark, bench_runner):
    mixes = list(SERVING_MIXES.values())
    data = run_once(
        benchmark,
        figure_interference,
        bench_runner,
        mixes=mixes,
        policies=INTERFERENCE_POLICIES,
        modes=CU_MODES,
    )
    summary = summarize(data, INTERFERENCE_COLUMNS)
    print()
    print(render_series_table(
        "Multi-tenant interference: mean per-tenant slowdown vs solo",
        series(data, "mean_slowdown"),
    ))
    print(render_series_table(
        "Multi-tenant interference: unfairness (max/min tenant slowdown)",
        series(data, "unfairness"),
    ))
    print(render_series_table(
        "Serving summary (geomean slowdown / mean unfairness)", summary
    ))
    INTERFERENCE_PATH.write_text(
        json.dumps(
            artifact(
                "figure_interference",
                data,
                summary,
                mixes={mix.name: mix.describe() for mix in mixes},
            ),
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )

    for mix_name, cells in data.items():
        for cell_name, cell in cells.items():
            # a tenant sharing the GPU can only lose time to contention;
            # tiny scheduling wiggle room is the only tolerated exception
            assert cell["max_slowdown"] > 0.0
            assert cell["mean_slowdown"] >= 0.95, (
                f"{mix_name} {cell_name}: co-running sped tenants up "
                f"({cell['mean_slowdown']:.3f}) -- address-space isolation broken?"
            )
            assert cell["unfairness"] >= 1.0 - 1e-9
            tenants = cell["tenants"]
            assert len(tenants) == SERVING_MIXES[mix_name].num_streams
    # interference must actually bite somewhere: the worst shared-mode
    # cell shows a real slowdown over solo execution
    worst = max(
        cell["max_slowdown"]
        for cells in data.values()
        for name, cell in cells.items()
        if name.endswith("@shared")
    )
    assert worst > 1.01, f"no mix showed measurable interference ({worst:.3f})"
