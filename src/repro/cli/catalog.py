"""The registries and the paper's tables: ``list`` and ``table``.

* ``list``  -- show the available workloads, policies, adaptive candidates,
  registered topologies and serving mixes (``--json`` for scripts and CI).
* ``table`` -- print Table 1 (system configuration) or Table 2 (workloads).
"""

from __future__ import annotations

import argparse
import json

from repro.cli import system_config
from repro.core.policies import ALL_POLICIES
from repro.experiments.render import render_kv_table, render_series_table
from repro.workloads.registry import WORKLOAD_NAMES, get_workload


def list_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit the registries as JSON (for scripts and CI)"
    )


#: the :class:`PolicySpec` fields ``list`` shows
_POLICY_FIELDS = (
    "name", "cache_loads_l1", "cache_loads_l2", "cache_stores_l2",
    "allocation_bypass", "cache_rinsing", "pc_bypass",
)


def _list_payload() -> dict[str, object]:
    """The registries as primitives: what ``list --json`` emits.

    CI and scripts enumerate scenarios from this instead of parsing the
    human-formatted table, so the schema is part of the CLI contract.
    """
    from repro.adaptive.config import AdaptiveConfig
    from repro.streams.config import SERVING_MIXES
    from repro.topology.config import TOPOLOGIES

    return {
        "schema": 1,
        "workloads": [
            {"name": name, "suite": meta.suite, "description": meta.description}
            for name, meta in ((name, get_workload(name).metadata) for name in WORKLOAD_NAMES)
        ],
        "policies": [
            {field: getattr(policy, field) for field in _POLICY_FIELDS} for policy in ALL_POLICIES
        ],
        "adaptive": {"default_candidates": [p.name for p in AdaptiveConfig().candidates]},
        "topologies": {name: topology.describe() for name, topology in TOPOLOGIES.items()},
        "serving_mixes": {name: mix.describe() for name, mix in SERVING_MIXES.items()},
    }


def list_command(args: argparse.Namespace) -> int:
    payload = _list_payload()
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    print("Workloads:")
    for workload in payload["workloads"]:
        print(f"  {workload['name']:10s} {workload['suite']:25s} {workload['description']}")
    print("\nPolicies:")
    for policy in payload["policies"]:
        print(
            f"  {policy['name']:14s} loads L1/L2: "
            f"{policy['cache_loads_l1']}/{policy['cache_loads_l2']}  "
            f"stores L2: {policy['cache_stores_l2']}  AB/CR/PCby: "
            f"{policy['allocation_bypass']}/{policy['cache_rinsing']}/{policy['pc_bypass']}"
        )
    print("\nAdaptive candidates (default):")
    print("  " + ", ".join(payload["adaptive"]["default_candidates"]))
    print("\nTopologies:")
    for name, topology in payload["topologies"].items():
        print(
            f"  {name:14s} devices: {topology['num_devices']}  "
            f"remote latency: {topology['remote_latency_cycles']}cy  "
            f"fabric: {topology['fabric_requests_per_cycle']} req/cy"
        )
    print("\nServing mixes:")
    for name, mix in payload["serving_mixes"].items():
        tenants = ", ".join(f"{s['workload']}@{s['launch_cycle']}" for s in mix["streams"])
        print(f"  {name:18s} [{tenants}]  {mix['description']}")
    return 0


def table_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("number", choices=["1", "2"])


def table_command(args: argparse.Namespace) -> int:
    from repro.experiments.tables import table1_system_configuration, table2_workloads

    if args.number == "1":
        tables = table1_system_configuration(config=system_config(args))
        print(render_kv_table("Table 1 (simulated, scaled configuration)", tables["simulated"]))
        print(render_kv_table("Table 1 (paper reference configuration)", tables["paper"]))
        return 0
    rows = table2_workloads(scale=args.scale)
    data = {
        str(row["name"]): {
            "paper kernels": float(row["paper_total_kernels"]),
            "sim kernels": float(row["sim_kernels"]),
            "sim requests": float(row["sim_line_requests"]),
            "sim footprint KB": row["sim_footprint_bytes"] / 1024.0,
        }
        for row in rows
    }
    print(render_series_table("Table 2: studied MI workloads (paper vs simulated)", data,
                              value_format="{:.0f}"))
    return 0
