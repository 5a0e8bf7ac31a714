"""Digest pins for merged sharded reports.

A sharded run executes each shard in its own worker process and merges
the per-shard reports.  These pins cover everything the merged report
says about the simulation -- workload label, cycles, counters, error
estimates and the sampling summary -- so a change to how shards are
executed or merged cannot silently change a result.

Bookkeeping that only describes *how* the shards were coordinated is
left out of the digest: the ``shard.epochs``, ``shard.boundary_dram``,
``shard.boundary_remote`` and ``shard.max_skew_cycles`` counters, and
for an unsampled run the ``executed_events``/``represented_events``
totals of its summary.

If a change alters these digests on purpose, re-record with
``PYTHONPATH=src python tests/integration/test_shard_guard.py`` and say
so in the commit.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.accel import SamplingConfig, ShardConfig
from repro.config import scaled_config
from repro.core.policies import policy_by_name
from repro.session import simulate
from repro.streams import StreamConfig

#: coordination bookkeeping, not simulation output
EXCLUDED_COUNTERS = frozenset(
    {
        "shard.epochs",
        "shard.boundary_dram",
        "shard.boundary_remote",
        "shard.max_skew_cycles",
    }
)
#: event totals of the unsampled summary (coordination bookkeeping too)
EXCLUDED_UNSAMPLED = frozenset({"executed_events", "represented_events"})


def _partitioned(*workloads: tuple[str, float]) -> list[StreamConfig]:
    return [
        StreamConfig(
            workload=workload, scale=scale, cu_share="partitioned", label=f"s{i}"
        )
        for i, (workload, scale) in enumerate(workloads)
    ]


CONFIGS = {
    "cm+fwlstm": dict(streams=_partitioned(("CM", 0.5), ("FwLSTM", 0.5))),
    "sampled-2xfwlstm": dict(
        streams=_partitioned(("FwLSTM", 1.0), ("FwLSTM", 1.0)),
        sampling=SamplingConfig(),
    ),
    "4-streams-2-shards": dict(
        streams=_partitioned(
            ("CM", 0.2), ("FwLSTM", 0.2), ("FwSoft", 0.2), ("FwAct", 0.2)
        )
    ),
}

EXPECTED = {
    "4-streams-2-shards": "41e77d892dd1d9ab1f182aa1a74d652ef5cd6cdc99f7050504905f1fa9744f3c",
    "cm+fwlstm": "03849fa395315e659abe39fc4190b121309b098a1d574fd98e272e809baddd19",
    "sampled-2xfwlstm": "dab108ddc78e7a36645260ac8282fb699215d1a4e510f9eaa6e17a1bc2a6eefd",
}


def merged_digest(name: str) -> str:
    report = simulate(
        policy=policy_by_name("CacheRW"),
        config=scaled_config(8),
        shards=ShardConfig(num_shards=2),
        **CONFIGS[name],
    )
    sampling = dict(report.sampling)
    if sampling["mode"] == "sharded":
        sampling = {
            key: value
            for key, value in sampling.items()
            if key not in EXCLUDED_UNSAMPLED
        }
    blob = {
        "workload": report.workload,
        "cycles": report.cycles,
        "counters": {
            key: value
            for key, value in report.counters.items()
            if key not in EXCLUDED_COUNTERS
        },
        "error_estimates": report.error_estimates,
        "sampling": sampling,
    }
    encoded = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_merged_report_digest_is_pinned(name):
    assert merged_digest(name) == EXPECTED[name]


if __name__ == "__main__":
    for name in sorted(CONFIGS):
        print(f"    {name!r}: {merged_digest(name)!r},")
