"""The resilience figure: serving mixes under cache policies while faults fire.

The acceptance measurement of the fault-injection subsystem: the default
resilience mixes under the caching baseline and the paper's bypass/rinse
optimizations, against every registered single-cause fault plan plus the
healthy baseline, on the dual-chiplet topology.  Like every figure bench
this runs through the shared session runner: chaos cells persist in the
same store under fingerprints that cover the fault plan, and the
empty-plan baselines are ordinary serving cells shared with the
interference study, so a warm harness repeat simulates nothing.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import (
    RESILIENCE_COLUMNS,
    artifact,
    figure_resilience,
    render_series_table,
    series,
    summarize,
)
from repro.experiments.resilience import (
    DEFAULT_RESILIENCE_MIXES,
    DEFAULT_RESILIENCE_PLANS,
    RESILIENCE_POLICIES,
    default_resilience_topology,
)
from repro.faults import FAULT_PLANS
from repro.streams import SERVING_MIXES

from benchmarks.conftest import run_once

#: figure data lands next to BENCH_core.json for the CI artifact upload
RESILIENCE_PATH = Path(__file__).resolve().parents[1] / "resilience_figure.json"


def test_figure_resilience(benchmark, bench_runner):
    mixes = [SERVING_MIXES[name] for name in DEFAULT_RESILIENCE_MIXES]
    plans = [FAULT_PLANS[name] for name in DEFAULT_RESILIENCE_PLANS]
    topology = default_resilience_topology()
    data = run_once(
        benchmark,
        figure_resilience,
        bench_runner,
        mixes=mixes,
        policies=RESILIENCE_POLICIES,
        plans=plans,
        topology=topology,
    )
    summary = summarize(data, RESILIENCE_COLUMNS)
    print()
    print(render_series_table(
        "Resilience: slowdown vs healthy baseline (same policy)",
        series(data, "slowdown"),
    ))
    print(render_series_table(
        "Resilience: availability (fraction of run with no fault active)",
        series(data, "availability"),
    ))
    print(render_series_table(
        "Resilience summary (geomean slowdown / mean availability)", summary
    ))
    RESILIENCE_PATH.write_text(
        json.dumps(
            artifact(
                "figure_resilience",
                data,
                summary,
                plans={
                    plan.label: {"events": len(plan.events), "description": plan.description}
                    for plan in plans
                },
                topology=topology.label,
            ),
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )

    for mix_name, cells in data.items():
        assert len(cells) == len(RESILIENCE_POLICIES) * len(plans)
        for cell_name, cell in cells.items():
            assert cell["cycles"] > 0
            if cell_name.endswith("@none"):
                # the healthy baseline is its own denominator and never
                # sees a fault
                assert cell["slowdown"] == 1.0
                assert cell["availability"] == 1.0
                assert cell["faults_injected"] == 0
            else:
                # every chaos cell really saw its faults and spent time
                # degraded; graceful degradation means it completed anyway
                assert cell["faults_injected"] > 0
                assert cell["degraded_cycles"] > 0
                assert 0.0 <= cell["availability"] < 1.0
    # chaos must actually cost something somewhere: the worst faulted
    # cell shows a real slowdown over its healthy baseline (individual
    # cells may come in under 1.0 -- evacuating a device can luckily
    # reduce cache contention -- but not the whole grid)
    worst = max(
        cell["slowdown"]
        for cells in data.values()
        for name, cell in cells.items()
        if not name.endswith("@none")
    )
    assert worst > 1.01, f"no fault plan showed measurable slowdown ({worst:.3f})"
