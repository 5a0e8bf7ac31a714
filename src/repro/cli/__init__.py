"""Command-line interface.

Installed as ``repro-gpu-cache`` (see ``pyproject.toml``) and runnable as
``python -m repro.cli``; ``repro-gpu-cache --help`` lists the commands.

The interface is a dispatcher over one table, :data:`COMMANDS`: command
name -> help line, argument builder, handler.  :func:`build_parser`
registers every command by name and help line only.  A command's parser
adds its arguments when it first parses or prints its help, and
:func:`main` imports the handler when it dispatches to it.  Builders and
handlers live in one module per command group, so a command imports and
compiles only its own module and the modules its run uses:

* :mod:`repro.cli.catalog`: ``list`` and ``table``;
* :mod:`repro.cli.figures`: ``sweep-all``, which prints Figures 4-13;
* :mod:`repro.cli.studies`: ``adaptive``, ``topology`` and ``serve``;
* :mod:`repro.cli.runs`: ``run`` and ``trace``;
* :mod:`repro.cli.records`: ``cache``, ``ledger`` and ``diff``.

This module holds what they share: the global options (``--scale`` and
``--cus``, given before the command), the executor flags and the runner,
store and closing helpers.  A command declares only the executor flags its
handler reads, after its name; one given before the name is a usage error
that names the flag.  The sweep-style commands take all of them:
``--jobs N`` fans independent simulations out across ``N`` worker
processes, and ``--cache-dir`` points them at a persistent result store so
repeated invocations never re-simulate a finished grid cell (they default
to the conventional ``~/.cache/repro-gpu-cache`` store; pass
``--no-cache`` to opt out).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

if TYPE_CHECKING:
    from repro.config import SystemConfig
    from repro.core.policies import PolicySpec
    from repro.experiments.runner import ExperimentRunner

__all__ = ["COMMANDS", "build_parser", "main"]


class Command(NamedTuple):
    """One subcommand: its ``--help`` line and where its code lives."""

    help: str
    #: module of this package that defines the two functions below
    module: str
    #: ``function(parser)`` adding the command's arguments
    arguments: str
    #: ``function(args)`` running the command; returns the exit code
    handler: str


#: every subcommand, in ``--help`` order
COMMANDS: dict[str, Command] = {
    "list": Command("list workloads, policies, adaptive candidates and topologies",
                    "catalog", "list_arguments", "list_command"),
    "run": Command("simulate one workload under one policy",
                   "runs", "run_arguments", "run_command"),
    "sweep-all": Command("materialize the workload x policy grid and print its figures",
                         "figures", "sweep_all_arguments", "sweep_all_command"),
    "adaptive": Command("run the online dynamic-policy study (Figure 14)",
                        "studies", "study_arguments", "adaptive_command"),
    "topology": Command("run the device-scaling study (1/2/4-device NUMA systems)",
                        "studies", "study_arguments", "topology_command"),
    "serve": Command("run the multi-tenant interference study (concurrent serving mixes)",
                     "studies", "study_arguments", "serve_command"),
    "trace": Command("record a Chrome/Perfetto trace of one instrumented run",
                     "runs", "trace_arguments", "trace_command"),
    "cache": Command("persistent result-store lifecycle (stats/clear/prune)",
                     "records", "cache_arguments", "cache_command"),
    "table": Command("print Table 1 or Table 2", "catalog", "table_arguments", "table_command"),
    "ledger": Command("cross-run provenance ledger (list/show/prune)",
                      "records", "ledger_arguments", "ledger_command"),
    "diff": Command("counter-for-counter comparison of two runs",
                    "records", "diff_arguments", "diff_command"),
}


def _function(module: str, name: str) -> Callable:
    """``name`` from this package's ``module``, which is imported now."""
    # __import__ rather than importlib.import_module: it takes the
    # interpreter's own import path, which ``-X importtime`` reports
    __import__(f"{__name__}.{module}")
    return getattr(sys.modules[f"{__name__}.{module}"], name)


class CommandParser(argparse.ArgumentParser):
    """One subcommand's parser: empty until it parses or prints its help.

    Registering a command costs one of these; its argument builder -- and
    the registries and study constants behind its defaults and choices --
    load only when the command line names it.
    """

    def __init__(self, *, command: str, **options) -> None:
        super().__init__(**options)
        self.command = command
        self._built = False

    def _build(self) -> None:
        if not self._built:
            self._built = True
            spec = COMMANDS[self.command]
            _function(spec.module, spec.arguments)(self)

    def parse_known_args(self, args=None, namespace=None):
        self._build()
        return super().parse_known_args(args, namespace)

    def format_help(self) -> str:
        self._build()
        return super().format_help()


def _worker_count(text: str) -> int:
    """``--jobs``: a whole number of worker processes, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return jobs


#: the executor flags: flag -> add_argument keywords
_EXECUTOR_FLAGS: dict[str, dict[str, object]] = {
    "--jobs": dict(
        type=_worker_count, default=1, metavar="N",
        help="worker processes for sweeps (default: 1, serial)",
    ),
    "--cache-dir": dict(
        default=None, metavar="DIR",
        help="persistent result store directory (default: the conventional store)",
    ),
    "--no-cache": dict(action="store_true", help="disable the persistent result store"),
    "--telemetry-out": dict(
        default=None, metavar="FILE",
        help="write executor telemetry (per-job wall times, worker "
        "utilization, store hits) as JSON",
    ),
    "--ledger": dict(
        default=None, metavar="FILE",
        help="append run/job provenance entries (plus a sweep aggregate) "
        "to this JSONL run ledger (inspect with the 'ledger' subcommand)",
    ),
}


class _GlobalParser(argparse.ArgumentParser):
    """The top-level parser: the global options, then a command name.

    An executor flag given before the command name would otherwise leave
    its value to be read as the command (``invalid choice: '2'``), so the
    parser names the misplaced flag instead.
    """

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        tokens = iter(args)
        for token in tokens:
            if not token.startswith("-"):
                break  # the command name
            flag = token.split("=", 1)[0]
            if flag in _EXECUTOR_FLAGS:
                self.error(f"{flag} goes after the command name: {self.prog} COMMAND {flag} ...")
            action = self._option_string_actions.get(token)
            if action is not None and action.nargs != 0:
                next(tokens, None)  # a global option's value
        return super().parse_known_args(args, namespace)


def add_executor_options(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Add the named executor flags to one command, or all of them when
    none are named (the sweep-style commands)."""
    for flag in flags or _EXECUTOR_FLAGS:
        parser.add_argument(flag, **_EXECUTOR_FLAGS[flag])


def add_policy_option(
    parser: argparse.ArgumentParser, flag: str, policies: Sequence[PolicySpec] = (), **options
) -> None:
    """Add a policy-name option; with ``policies``, a list defaulting to them.

    Names match the registry spellings case-insensitively (unknown names
    pass through for ``choices`` to reject).
    """
    from repro.core.policies import ALL_POLICIES

    names = [policy.name for policy in ALL_POLICIES]

    def policy_name(text: str) -> str:
        return next((name for name in names if name.lower() == text.lower()), text)

    if policies:
        options.update(nargs="+", default=[policy.name for policy in policies])
    parser.add_argument(flag, type=policy_name, choices=names, **options)


def add_workloads_option(parser: argparse.ArgumentParser, default: str) -> None:
    """Add ``--workloads``: a subset of the registry, ``default`` when unset."""
    from repro.workloads.registry import WORKLOAD_NAMES

    parser.add_argument(
        "--workloads", nargs="+", default=None, choices=list(WORKLOAD_NAMES),
        help=f"subset of workloads (default: {default})",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser: the global options and every command by name."""
    parser = _GlobalParser(
        prog="repro-gpu-cache",
        description="GPU cache-policy reproduction for MI workloads (IISWC 2019)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    parser.add_argument("--cus", type=int, default=None, help="number of compute units")
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=CommandParser)
    for name, command in COMMANDS.items():
        subparsers.add_parser(name, help=command.help, command=name)
    return parser


def system_config(args: argparse.Namespace) -> SystemConfig:
    from repro.config import default_config, scaled_config

    if args.cus is not None:
        return scaled_config(args.cus)
    return default_config()


def store_dir(args: argparse.Namespace) -> str | None:
    """The store directory: ``--cache-dir``, none with ``--no-cache``,
    else the conventional store."""
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    from repro.experiments.store import default_cache_dir

    return str(default_cache_dir())


def make_runner(
    args: argparse.Namespace, workload_names: Sequence[str] | None = None
) -> ExperimentRunner:
    """Build the experiment runner every sweep-style command shares."""
    from repro.experiments.runner import ExperimentRunner

    return ExperimentRunner(
        scale=args.scale,
        config=system_config(args),
        workload_names=workload_names,
        jobs=args.jobs,
        cache_dir=store_dir(args),
        ledger_path=args.ledger,
    )


def finish(
    args: argparse.Namespace,
    runner: ExperimentRunner,
    grid: str,
    blob: dict[str, object] | None = None,
) -> int:
    """The closing step every sweep-style command shares; returns 0.

    Writes ``blob`` to ``--json-out``; prints the stats line, headed by
    ``grid``, on stderr (so stdout stays byte-identical between cold and
    warm runs); appends the sweep aggregate to the ledger; writes the
    ``--telemetry-out`` executor artifact.
    """
    from repro.ioutil import atomic_write_json

    json_out = getattr(args, "json_out", None)
    if json_out and blob is not None:
        atomic_write_json(json_out, blob)
        print(f"[{args.command}] wrote figure data to {json_out}", file=sys.stderr)
    executor = runner.executor
    stats = executor.stats
    print(
        f"[{args.command}] {grid} jobs={args.jobs} store={store_dir(args) or 'disabled'} "
        f"simulated={stats.runs_simulated} loaded={stats.runs_loaded}",
        file=sys.stderr,
    )
    if executor.ledger is not None:
        executor.record_sweep(label=args.command)
    if args.telemetry_out:
        telemetry = {
            "schema": 1,
            "command": args.command,
            "executor": executor.stats.telemetry(workers=executor.workers),
        }
        atomic_write_json(args.telemetry_out, telemetry)
        print(
            f"[{args.command}] wrote executor telemetry to {args.telemetry_out}", file=sys.stderr
        )
    return 0


def fail(message: str) -> int:
    """Report an error found after parsing on stderr; returns exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (math.isfinite(args.scale) and args.scale > 0):
        parser.error(f"--scale must be a positive finite number, got {args.scale}")
    if args.cus is not None and args.cus < 1:
        parser.error(f"--cus must be at least 1, got {args.cus}")
    interval = getattr(args, "metrics_interval", None)
    if interval is not None and interval < 0:
        parser.error(f"--metrics-interval must be non-negative, got {interval}")
    command = COMMANDS[args.command]
    try:
        return _function(command.module, command.handler)(args)
    except OSError as exc:  # unusable --cache-dir target (file, unwritable, ...)
        return fail(str(exc))
