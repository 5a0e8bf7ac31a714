"""Digest pins for one run per axis, through every run entry point.

A run is one (workload, policy, system) cell plus optional axes.  Each
entry of :data:`SPECS` is one such cell exercising one axis; it is run
three ways -- :func:`repro.session.simulate`,
``SimulationSession(...).run`` and a one-job batch of
:class:`repro.experiments.jobs.SweepExecutor` -- and the full
``RunReport.to_dict()`` of every path must hash to the pinned digest.  A
change to how the entry points build, normalise or forward a run cannot
alter a result without failing here.

If a change alters these digests on purpose, re-record with
``PYTHONPATH=src python tests/integration/test_axis_guard.py`` and say so
in the commit.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.accel import SamplingConfig
from repro.adaptive import AdaptiveConfig
from repro.config import scaled_config
from repro.core.policies import policy_by_name
from repro.core.reuse_predictor import PredictorConfig
from repro.experiments.jobs import JobSpec, SweepExecutor
from repro.session import SimulationSession, simulate
from repro.streams import StreamConfig
from repro.topology import TOPOLOGIES
from repro.workloads.registry import get_workload

TINY = scaled_config(2)
FAST = AdaptiveConfig(epoch_cycles=500, min_leader_accesses=8)
TENANTS = (
    StreamConfig(workload="FwSoft", scale=0.1, label="soft"),
    StreamConfig(workload="CM", scale=0.1, launch_cycle=500, label="cm"),
)
#: the label a stream tuple's report carries on every path
TENANTS_LABEL = "soft+cm"

#: name -> (workload, scale, run axes); ``workload`` is the report label
#: of a serving run, whose streams name their own workloads
SPECS = {
    "static": ("FwSoft", 0.2, dict(policy=policy_by_name("CacheRW"))),
    "adaptive": (
        "FwSoft",
        0.2,
        dict(policy=FAST.initial_policy, adaptive=FAST),
    ),
    "topology": (
        "FwSoft",
        0.2,
        dict(policy=policy_by_name("CacheRW"), topology=TOPOLOGIES["dual-chiplet"]),
    ),
    "streams": (TENANTS_LABEL, 1.0, dict(policy=policy_by_name("CacheR"), streams=TENANTS)),
    "sampling": (
        "FwLSTM",
        0.3,
        dict(policy=policy_by_name("CacheRW"), sampling=SamplingConfig()),
    ),
    "predictor_config": (
        "FwAct",
        0.2,
        dict(
            policy=policy_by_name("CacheRW-PCby"),
            predictor_config=PredictorConfig(
                table_entries=16, counter_bits=2, bypass_threshold=2, initial_value=3
            ),
        ),
    ),
}

EXPECTED = {
    "adaptive": "ce221af069b2de93084dd3308df8a8fc1eebcc3a7c29c4a19bd10dfa71024258",
    "predictor_config": "5cdbd0ce46b59953b61602d67d367d0797822f3b6d1a0e0c83cf85774a98ce7a",
    "sampling": "14611aaeffcbf18681da063ef284d286848d04b7060d4746ab74322d194c678c",
    "static": "308e95888298d8945ba55cc037e4788c8205b2b22178523d3cea92558cf1b47b",
    "streams": "be503842134e380ece54eaceb0023f3a71390db4e31bd949d9f2dff52bf71d8b",
    "topology": "1680c7c185a9bb93e695e4bfa4c16325beaa4c9b29299e00325000ef0f74f44f",
}

PATHS = ("simulate", "session", "executor")


def run(name: str, path: str):
    workload_name, scale, axes = SPECS[name]
    workload = None if "streams" in axes else get_workload(workload_name, scale=scale)
    if path == "simulate":
        return simulate(workload, config=TINY, **axes)
    if path == "session":
        return SimulationSession(config=TINY, **axes).run(workload)
    job = JobSpec(workload=workload_name, scale=scale, config=TINY, **axes)
    return SweepExecutor().run([job])[0]


def report_digest(name: str, path: str) -> str:
    encoded = json.dumps(run(name, path).to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_digest_is_pinned(name, path):
    assert report_digest(name, path) == EXPECTED[name]


if __name__ == "__main__":
    for name in sorted(SPECS):
        digests = {report_digest(name, path) for path in PATHS}
        assert len(digests) == 1, f"{name}: entry points disagree"
        print(f"    {name!r}: {digests.pop()!r},")
