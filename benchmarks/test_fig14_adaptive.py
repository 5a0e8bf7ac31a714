"""Figure 14: the online dynamic policy vs the static envelope.

The acceptance measurement of the adaptive subsystem: across the full
workload suite (the paper's seventeen plus MHA), one dynamic run per
workload -- starting with no knowledge of the workload -- must beat the
per-workload *worst* static policy in geomean and sit inside the
static-best/optimization-stack envelope on the reuse-sensitive group.

Like every figure bench this runs through the shared session runner, so
the static cells come from the same store Figures 6-13 use, and the
dynamic cells persist under the adaptive configuration's fingerprint.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.adaptive import AdaptiveConfig
from repro.core.classification import PAPER_CATEGORIES, WorkloadCategory
from repro.experiments import (
    adaptive_summary,
    artifact,
    figure14_adaptive,
    render_series_table,
)
from repro.experiments.adaptive import DYNAMIC
from repro.experiments.optimizations import STATIC_WORST
from repro.workloads.registry import WORKLOAD_NAMES

from benchmarks.conftest import run_once

#: figure data lands at the repository root, where CI uploads it as an artifact
FIG14_PATH = Path(__file__).resolve().parents[1] / "adaptive_figure.json"


@pytest.fixture(scope="module")
def adaptive_config() -> AdaptiveConfig:
    return AdaptiveConfig()


def test_figure14_dynamic_policy(benchmark, bench_runner, adaptive_config):
    data = run_once(
        benchmark, figure14_adaptive, bench_runner, adaptive_config=adaptive_config
    )
    summary = adaptive_summary(data)
    print()
    print(
        render_series_table(
            "Figure 14: dynamic policy vs static envelope "
            "(execution time normalized to best static)",
            data,
            workload_order=WORKLOAD_NAMES,
        )
    )
    print(render_series_table("Figure 14 geomean summary", summary))
    FIG14_PATH.write_text(
        json.dumps(
            artifact(
                "figure14",
                data,
                summary,
                adaptive_fingerprint=adaptive_config.fingerprint(),
            ),
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )

    # the dynamic policy must clearly beat the static-worst envelope edge
    assert summary["All"][DYNAMIC] < summary["All"][STATIC_WORST]
    # and it must stay inside the envelope where adaptivity matters most:
    # on the reuse-sensitive group it tracks the best static policy ...
    reuse = summary[str(WorkloadCategory.REUSE_SENSITIVE)]
    assert reuse[DYNAMIC] < reuse[STATIC_WORST]
    assert reuse[DYNAMIC] <= 1.30, (
        "dynamic geomean drifted above the static-best envelope on the "
        f"reuse-sensitive group: {reuse[DYNAMIC]:.3f}"
    )
    # ... and no reuse-sensitive workload ends outside the worst edge
    for name in WORKLOAD_NAMES:
        if PAPER_CATEGORIES[name] is WorkloadCategory.REUSE_SENSITIVE:
            assert data[name][DYNAMIC] <= max(1.05, 1.02 * data[name][STATIC_WORST])
