"""The paper's static grid: ``sweep``, ``sweep-all`` and ``figure``.

* ``sweep``     -- simulate a workload under several policies and print a
  normalized comparison.
* ``sweep-all`` -- materialize the full (workload x policy) grid once and
  print every figure derived from it.
* ``figure``    -- regenerate one of the paper's figures (4-13) as a text table.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from repro.cli import (
    add_executor_options,
    add_policy_option,
    add_workloads_option,
    finish,
    make_runner,
)
from repro.core.policies import ALL_POLICIES, STATIC_POLICIES, policy_by_name
from repro.experiments.render import render_series_table
from repro.workloads.registry import WORKLOAD_NAMES

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentRunner

#: figure number -> (title, builder in :mod:`repro.experiments`, value
#: format); the builder's study module is imported when the figure is drawn
FIGURES = {
    "4": ("Figure 4: compute bandwidth (GVOPS), CacheR", "figure4_gvops", "{:.1f}"),
    "5": ("Figure 5: memory request bandwidth (GMR/s), CacheR", "figure5_gmrs", "{:.3f}"),
    "6": ("Figure 6: execution time normalized to Uncached", "figure6_execution_time", "{:.3f}"),
    "7": ("Figure 7: DRAM accesses normalized to Uncached", "figure7_dram_accesses", "{:.3f}"),
    "8": ("Figure 8: cache stalls per memory request", "figure8_cache_stalls", "{:.3f}"),
    "9": ("Figure 9: DRAM row-buffer hit ratio", "figure9_row_hit_rate", "{:.3f}"),
    "10": ("Figure 10: execution time normalized to best static", "figure10_execution_time", "{:.3f}"),
    "11": ("Figure 11: DRAM accesses normalized to Uncached", "figure11_dram_accesses", "{:.3f}"),
    "12": ("Figure 12: cache stalls per memory request", "figure12_cache_stalls", "{:.3f}"),
    "13": ("Figure 13: DRAM row-buffer hit ratio", "figure13_row_hit_rate", "{:.3f}"),
}


def sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True, choices=list(WORKLOAD_NAMES))
    add_policy_option(
        parser, "--policies", STATIC_POLICIES,
        help="policy names (default: the three static policies)",
    )
    add_executor_options(parser)


def sweep_command(args: argparse.Namespace) -> int:
    workload_name = args.workload
    runner = make_runner(args, [workload_name], default_store=False)
    sweep = runner.sweep(policies=[policy_by_name(name) for name in args.policies])
    comparison = sweep.comparison(workload_name)
    data = {
        workload_name: comparison.normalized_exec_time(
            baseline=args.policies[0] if "Uncached" not in comparison.reports else "Uncached"
        )
    }
    print(render_series_table(f"Execution time for {workload_name} (normalized)", data))
    dram = {workload_name: comparison.metric(lambda r: float(r.dram_accesses))}
    print(render_series_table(f"DRAM accesses for {workload_name}", dram, value_format="{:.0f}"))
    return finish(args, runner)


def sweep_all_arguments(parser: argparse.ArgumentParser) -> None:
    add_workloads_option(parser, "all 18")
    add_policy_option(
        parser, "--policies", ALL_POLICIES, help="policy names (default: all six policies)"
    )
    parser.add_argument(
        "--figures",
        nargs="+",
        default=sorted(FIGURES, key=int),
        choices=sorted(FIGURES, key=int),
        metavar="N",
        help="figures to print after the sweep (default: 4-13)",
    )
    add_executor_options(parser)


def _print_figure(number: str, runner: ExperimentRunner) -> None:
    from repro import experiments

    title, builder, fmt = FIGURES[number]
    figure = getattr(experiments, builder)(runner)
    print(render_series_table(title, figure, value_format=fmt))


def sweep_all_command(args: argparse.Namespace) -> int:
    """Materialize the full grid once, then print every requested figure.

    The sweep submits the whole (workload x policy) grid to the executor in
    one batch, so ``--jobs N`` runs up to N grid cells concurrently; with
    the persistent store warm, a repeat invocation simulates nothing and
    prints identical figures.
    """
    runner = make_runner(args, args.workloads)
    policies = [policy_by_name(name) for name in args.policies]
    runner.sweep(policies=policies)
    for number in args.figures:
        _print_figure(number, runner)
    return finish(args, runner, f"grid={len(runner.workload_names)}x{len(policies)}")


def figure_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("number", choices=sorted(FIGURES, key=int))
    add_workloads_option(parser, "all 18")
    add_executor_options(parser)


def figure_command(args: argparse.Namespace) -> int:
    runner = make_runner(args, args.workloads, default_store=False)
    _print_figure(args.number, runner)
    return finish(args, runner)
