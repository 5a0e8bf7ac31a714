"""The studies: ``adaptive``, ``topology`` and ``serve``.

* ``adaptive`` -- the online dynamic-policy study (Figure 14): every
  workload under set-dueling + phase-aware policy selection, compared with
  the static envelope and the paper's optimization stack.
* ``topology`` -- the device-scaling study: policies across 1/2/4-device
  NUMA systems (speedup + remote-traffic fraction per cell).
* ``serve``    -- the multi-tenant interference study: serving mixes of
  concurrent streams under shared vs partitioned CU dispatch (per-tenant
  slowdown + unfairness per cell).

One builder, :func:`study_arguments`, makes all three parsers from
:data:`STUDIES`.  Each study's options come from a function that imports
the study constants behind their defaults and choices, so parsing one
study loads that study's module and no other.  The studies attach no
in-run observers: their cells run in workers or come from the store, so
``trace --mix``/``--workload`` records one run of a cell instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import TYPE_CHECKING, Callable, Sequence

from repro.cli import (
    CommandParser,
    add_executor_options,
    add_policy_option,
    add_workloads_option,
    fail,
    finish,
    make_runner,
)
from repro.core.policies import STATIC_POLICIES, policy_by_name
from repro.experiments.render import render_series_table

if TYPE_CHECKING:
    from repro.experiments.study import Column, Figure


def _json_out(parser: argparse.ArgumentParser, contents: str = "summary") -> None:
    parser.add_argument(
        "--json-out", default=None, metavar="FILE",
        help=f"write the figure data and {contents} as JSON (CI artifact)",
    )


def _adaptive_options(parser: argparse.ArgumentParser) -> None:
    add_workloads_option(parser, "all 18, including MHA")
    add_policy_option(
        parser, "--candidates", STATIC_POLICIES,
        help="candidate policies the duel arbitrates (default: the static three)",
    )
    parser.add_argument(
        "--epoch-cycles", type=int, default=None, metavar="N",
        help="phase-sampling / duel-decision period in cycles",
    )
    parser.add_argument(
        "--mid-kernel", action="store_true",
        help="also swap the policy mid-kernel when the phase detector fires",
    )
    _json_out(parser, "geomean summary")


def _topology_options(parser: argparse.ArgumentParser) -> None:
    from repro.experiments.scaling import SCALING_DEVICES, SCALING_WORKLOADS
    from repro.topology.config import TOPOLOGY_NAMES

    parser.add_argument(
        "--devices", nargs="+", type=int, default=list(SCALING_DEVICES), metavar="N",
        help="device counts to sweep (must include the 1-device baseline)",
    )
    add_workloads_option(parser, " ".join(SCALING_WORKLOADS))
    add_policy_option(
        parser, "--policies", STATIC_POLICIES,
        help="policy names (default: the three static policies)",
    )
    parser.add_argument(
        "--fabric", default=None, choices=list(TOPOLOGY_NAMES), metavar="NAME",
        help="registered topology whose fabric parameters the sweep holds fixed",
    )
    parser.add_argument(
        "--replicate-weights", action="store_true",
        help="replicate shared read-only (weight) lines per device",
    )
    _json_out(parser)


def _serve_options(parser: argparse.ArgumentParser) -> None:
    from repro.experiments.interference import CU_MODES, INTERFERENCE_POLICIES
    from repro.streams.config import MIX_NAMES

    parser.add_argument(
        "--mix", nargs="+", default=None, choices=list(MIX_NAMES),
        help="serving mixes to study (default: all registered mixes)",
    )
    add_policy_option(
        parser, "--policies", INTERFERENCE_POLICIES,
        help="policy names (default: CacheRW plus the AB/CR optimizations)",
    )
    parser.add_argument(
        "--cu-partition", default="both", choices=[*CU_MODES, "both"],
        metavar="MODE",
        help="CU share mode(s): shared, partitioned, or both (default)",
    )
    _json_out(parser)


#: study command -> adds its own options, in --help order.  Every study
#: also takes the executor flags.
STUDIES: dict[str, Callable[[argparse.ArgumentParser], None]] = {
    "adaptive": _adaptive_options,
    "topology": _topology_options,
    "serve": _serve_options,
}


def study_arguments(parser: CommandParser) -> None:
    """Build one study command's parser from :data:`STUDIES`."""
    STUDIES[parser.command](parser)
    add_executor_options(parser)


def _print_study(
    figure: Figure, columns: dict[str, Column], tables: Sequence[tuple[str, str]], summary: str
) -> dict[str, dict[str, float]]:
    """Print one table per (title, metric) and the summary; return the summary."""
    from repro.experiments.study import series, summarize

    for title, metric in tables:
        print(render_series_table(title, series(figure, metric)))
    summarized = summarize(figure, columns)
    print(render_series_table(summary, summarized))
    return summarized


def adaptive_command(args: argparse.Namespace) -> int:
    """Run the dynamic-vs-static comparison and print/record Figure 14.

    The static envelope is shared with Figures 6-13 through the store, so
    a warm repeat re-simulates neither it nor the dynamic cells.
    """
    from repro.adaptive.config import AdaptiveConfig
    from repro.experiments.adaptive import adaptive_summary, figure14_adaptive
    from repro.experiments.study import artifact

    overrides: dict[str, object] = {
        "candidates": tuple(policy_by_name(name) for name in args.candidates),
        "mid_kernel_switching": bool(args.mid_kernel),
    }
    if args.epoch_cycles is not None:
        overrides["epoch_cycles"] = args.epoch_cycles
    adaptive_config = AdaptiveConfig(**overrides)  # type: ignore[arg-type]

    runner = make_runner(args, args.workloads)
    figure = figure14_adaptive(runner, adaptive_config=adaptive_config)
    summary = adaptive_summary(figure)
    print(
        render_series_table(
            "Figure 14: dynamic policy vs static envelope "
            "(execution time normalized to best static)",
            figure,
        )
    )
    print(render_series_table("Figure 14 geomean summary", summary))
    blob = artifact(
        "figure14",
        figure,
        summary,
        adaptive={
            "fingerprint": adaptive_config.fingerprint(),
            "candidates": [p.name for p in adaptive_config.candidates],
            "epoch_cycles": adaptive_config.epoch_cycles,
            "leader_sets_per_policy": adaptive_config.leader_sets_per_policy,
            "mid_kernel_switching": adaptive_config.mid_kernel_switching,
        },
        scale=args.scale,
        num_cus=runner.config.gpu.num_cus,
    )
    return finish(args, runner, f"workloads={len(figure)}", blob)


def topology_command(args: argparse.Namespace) -> int:
    """Run the device-scaling study and print/record its figure.

    Every cell's fingerprint includes the :class:`TopologyConfig`, so a
    warm repeat simulates nothing and the stderr stats line proves it.
    """
    from repro.experiments.scaling import SCALING_COLUMNS, SCALING_WORKLOADS, figure_scaling
    from repro.experiments.study import artifact
    from repro.topology.config import TopologyConfig, topology_by_name

    devices = sorted(set(args.devices))
    if 1 not in devices:
        return fail("--devices must include the 1-device baseline (speedups are normalized to it)")
    if any(count < 1 for count in devices):
        return fail("device counts must be positive")
    base = topology_by_name(args.fabric) if args.fabric else TopologyConfig()
    if args.replicate_weights:
        base = dataclasses.replace(base, replicate_weights=True)

    workload_names = tuple(args.workloads) if args.workloads else SCALING_WORKLOADS
    runner = make_runner(args, workload_names)
    policies = [policy_by_name(name) for name in args.policies]
    figure = figure_scaling(
        runner, devices=devices, policies=policies, workload_names=workload_names, topology=base
    )
    summary = _print_study(
        figure,
        SCALING_COLUMNS,
        [
            ("Device scaling: speedup over the same policy at 1 device", "speedup"),
            ("Device scaling: remote traffic fraction", "remote_fraction"),
        ],
        "Device scaling summary (geomean speedup / mean remote fraction)",
    )
    blob = artifact(
        "figure_scaling",
        figure,
        summary,
        devices=devices,
        workloads=list(workload_names),
        fabric=base.describe(),
        fingerprints={str(count): base.with_devices(count).fingerprint() for count in devices},
        scale=args.scale,
        cus_per_device=runner.config.gpu.num_cus,
        policies=[p.name for p in policies],
    )
    grid = f"grid={len(workload_names)}x{len(policies)}x{len(devices)}"
    return finish(args, runner, grid, blob)


def serve_command(args: argparse.Namespace) -> int:
    """Run the multi-tenant interference study and print/record its figure.

    Every cell's fingerprint covers the full stream configurations, and
    the solo baselines are plain single-workload cells shared with the
    ordinary sweeps, so a warm repeat simulates nothing.
    """
    from repro.experiments.interference import (
        CU_MODES,
        INTERFERENCE_COLUMNS,
        figure_interference,
        mix_is_partitionable,
    )
    from repro.experiments.study import artifact
    from repro.streams.config import MIX_NAMES, mix_by_name

    mixes = [mix_by_name(name) for name in (args.mix or MIX_NAMES)]
    policies = [policy_by_name(name) for name in args.policies]
    modes = list(CU_MODES) if args.cu_partition == "both" else [args.cu_partition]
    runner = make_runner(args)
    cus = runner.config.gpu.num_cus
    if "partitioned" in modes:
        for mix in mixes:
            if not mix_is_partitionable(mix, cus):
                print(
                    f"[serve] note: {mix.name} has {mix.num_streams} streams but "
                    f"the system has {cus} CUs per device; "
                    "its partitioned cells are skipped",
                    file=sys.stderr,
                )
        if modes == ["partitioned"] and not any(mix_is_partitionable(mix, cus) for mix in mixes):
            return fail(
                "no requested mix fits a CU partition on this system; "
                "add --cus, pick narrower mixes, or use --cu-partition shared/both"
            )
    figure = figure_interference(runner, mixes=mixes, policies=policies, modes=modes)
    summary = _print_study(
        figure,
        INTERFERENCE_COLUMNS,
        [
            ("Multi-tenant interference: mean per-tenant slowdown vs solo", "mean_slowdown"),
            ("Multi-tenant interference: unfairness (max/min tenant slowdown)", "unfairness"),
        ],
        "Serving summary (geomean slowdown / mean unfairness)",
    )
    blob = artifact(
        "figure_interference",
        figure,
        summary,
        mixes={mix.name: mix.describe() for mix in mixes},
        modes=modes,
        policies=[p.name for p in policies],
        scale=args.scale,
        num_cus=cus,
    )
    grid = f"grid={len(mixes)}x{len(policies)}x{len(modes)}"
    return finish(args, runner, grid, blob)
