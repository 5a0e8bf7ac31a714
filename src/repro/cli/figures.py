"""The paper's static grid: ``sweep``, ``sweep-all`` and ``figure``.

* ``sweep``     -- simulate a workload under several policies and print a
  normalized comparison.
* ``sweep-all`` -- materialize the full (workload x policy) grid once and
  print every figure derived from it.
* ``figure``    -- regenerate one of the paper's figures (4-13) as a text table.
"""

from __future__ import annotations

import argparse
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.cli import (
    add_executor_options,
    add_policy_option,
    add_workloads_option,
    finish,
    make_runner,
)
from repro.core.policies import ALL_POLICIES, STATIC_POLICIES, policy_by_name
from repro.experiments.figures import FIGURES, FigureSpec, figure, own_series, tabulate
from repro.experiments.render import render_series_table
from repro.workloads.registry import WORKLOAD_NAMES

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentRunner

#: the figure numbers ``figure`` and ``sweep-all --figures`` accept
FIGURE_NUMBERS = [str(number) for number in FIGURES]


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
    policies = tuple(policy_by_name(name) for name in args.policies)
    sweep = runner.sweep(policies=policies)
    series = own_series(*args.policies)
    baseline = "Uncached" if "Uncached" in args.policies else args.policies[0]
    for spec in (
        FigureSpec(f"Execution time for {workload_name} (normalized)", "{:.3f}",
                   policies, series, attrgetter("cycles"), baseline),
        FigureSpec(f"DRAM accesses for {workload_name}", "{:.0f}",
                   policies, series, attrgetter("dram_accesses")),
    ):
        print(render_series_table(spec.title, tabulate(spec, sweep),
                                  value_format=spec.value_format))
    return finish(args, runner)


def sweep_all_arguments(parser: argparse.ArgumentParser) -> None:
    add_workloads_option(parser, "all 18")
    add_policy_option(
        parser, "--policies", ALL_POLICIES, help="policy names (default: all six policies)"
    )
    parser.add_argument(
        "--figures",
        nargs="+",
        default=FIGURE_NUMBERS,
        choices=FIGURE_NUMBERS,
        metavar="N",
        help="figures to print after the sweep (default: 4-13)",
    )
    add_executor_options(parser)


def _print_figure(number: str, runner: ExperimentRunner) -> None:
    spec = FIGURES[int(number)]
    print(render_series_table(spec.title, figure(int(number), runner),
                              value_format=spec.value_format))


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
    parser.add_argument("number", choices=FIGURE_NUMBERS)
    add_workloads_option(parser, "all 18")
    add_executor_options(parser)


def figure_command(args: argparse.Namespace) -> int:
    runner = make_runner(args, args.workloads, default_store=False)
    _print_figure(args.number, runner)
    return finish(args, runner)
