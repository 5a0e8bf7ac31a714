"""The paper's static grid: ``sweep-all``.

``sweep-all`` materializes the (workload x policy) cells the requested
figures need in one batch and prints each figure (4-13) as a text table.
"""

from __future__ import annotations

import argparse

from repro.cli import add_executor_options, add_workloads_option, finish, make_runner
from repro.core.policies import ALL_POLICIES
from repro.experiments.figures import FIGURES, figure
from repro.experiments.render import render_series_table

#: the figure numbers ``sweep-all --figures`` accepts
FIGURE_NUMBERS = [str(number) for number in FIGURES]


def sweep_all_arguments(parser: argparse.ArgumentParser) -> None:
    add_workloads_option(parser, "all 18")
    parser.add_argument(
        "--figures",
        nargs="+",
        default=FIGURE_NUMBERS,
        choices=FIGURE_NUMBERS,
        metavar="N",
        help="figures to print after the sweep (default: 4-13)",
    )
    add_executor_options(parser)


def sweep_all_command(args: argparse.Namespace) -> int:
    """Materialize the requested figures' grid once, then print them.

    The sweep submits every (workload x policy) cell the figures need to
    the executor in one batch, so ``--jobs N`` runs up to N grid cells
    concurrently; with the persistent store warm, a repeat invocation
    simulates nothing and prints identical figures.
    """
    runner = make_runner(args, args.workloads)
    needed = {policy for number in args.figures for policy in FIGURES[int(number)].policies}
    policies = [policy for policy in ALL_POLICIES if policy in needed]
    runner.sweep(policies=policies)
    for number in args.figures:
        spec = FIGURES[int(number)]
        print(render_series_table(spec.title, figure(int(number), runner),
                                  value_format=spec.value_format))
    return finish(args, runner, f"grid={len(runner.workload_names)}x{len(policies)}")
