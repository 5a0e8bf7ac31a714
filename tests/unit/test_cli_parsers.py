"""The CLI's parsers, pinned option for option.

``repro.cli`` registers every command up front but builds a command's
parser only when that command parses or prints its help.  These tests
build each one and compare its options -- flags, destinations, defaults,
choices, counts and help lines -- with ``cli_parsers.json``, a copy taken
from the eagerly built parser the command table replaced.  If a change
alters the options on purpose, re-record with
``PYTHONPATH=src python tests/unit/test_cli_parsers.py`` and say so in
the commit.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro import cli

PIN = Path(__file__).with_name("cli_parsers.json")


def _action(action: argparse.Action) -> dict[str, object]:
    if isinstance(action, argparse._SubParsersAction):
        choices: object = {
            choice.dest: choice.help for choice in action._choices_actions
        }
    else:
        choices = None if action.choices is None else list(action.choices)
    return {
        "options": list(action.option_strings) or [action.dest],
        "dest": action.dest,
        "default": action.default,
        "choices": choices,
        "nargs": action.nargs,
        "required": action.required,
        "type": {int: "int", float: "float", None: None}.get(action.type, "function"),
        "metavar": action.metavar,
        "help": action.help,
    }


def describe(parser: argparse.ArgumentParser) -> dict[str, object]:
    """Every option of ``parser`` and of each subcommand, as JSON data."""
    parsers = {"": parser}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.update(action.choices)
    described = {}
    for name, command in parsers.items():
        command.format_help()  # what builds a lazily-built command parser
        described[name] = {
            "actions": [_action(action) for action in command._actions],
            "exclusive": [
                [action.dest for action in group._group_actions]
                for group in command._mutually_exclusive_groups
            ],
        }
    return described


@pytest.fixture(scope="module")
def pinned() -> dict[str, object]:
    return json.loads(PIN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def described() -> dict[str, object]:
    # through JSON, so tuples compare equal to the pin's lists
    return json.loads(json.dumps(describe(cli.build_parser())))


def test_the_table_registers_every_pinned_command(pinned):
    assert list(cli.COMMANDS) == [name for name in pinned if name]


@pytest.mark.parametrize("name", ["", *cli.COMMANDS])
def test_parser_options_match_the_pin(name, described, pinned):
    assert described[name] == pinned[name]


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_help_exits_0(name, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([name, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: repro-gpu-cache {name}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--scale", "0"], "--scale must be a positive finite number, got 0.0"),
        (["--scale", "-1"], "--scale must be a positive finite number, got -1.0"),
        (["--scale", "nan"], "--scale must be a positive finite number, got nan"),
        (["--scale", "inf"], "--scale must be a positive finite number, got inf"),
        (["--cus", "0"], "--cus must be at least 1, got 0"),
        (["--cus", "-2"], "--cus must be at least 1, got -2"),
    ],
)
@pytest.mark.parametrize("command", [["table", "2"], ["run", "--workload", "FwAct", "--policy", "CacheR"]])
def test_bad_scale_or_cus_is_a_usage_error(argv, message, command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, *command])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro-gpu-cache")
    assert f"error: {message}" in err


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_bad_jobs_is_a_usage_error(jobs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["sweep-all", "--no-cache", "--jobs", jobs])
    assert exit_info.value.code == 2
    message = f"error: argument --jobs: must be a whole number of at least 1, got '{jobs}'"
    assert message in capsys.readouterr().err


#: the executor flags, each with a value where it takes one
EXECUTOR_FLAGS = {
    "--jobs": ["2"], "--cache-dir": ["D"], "--no-cache": [], "--telemetry-out": ["T"],
    "--ledger": ["L"],
}
#: a minimal command line per command, and the executor flags its handler reads
COMMAND_LINES = {
    "list": (["list"], ()),
    "run": (["run", "--workload", "FwSoft", "--policy", "CacheR"], ("--ledger",)),
    "sweep-all": (["sweep-all"], tuple(EXECUTOR_FLAGS)),
    "adaptive": (["adaptive"], tuple(EXECUTOR_FLAGS)),
    "topology": (["topology"], tuple(EXECUTOR_FLAGS)),
    "serve": (["serve"], tuple(EXECUTOR_FLAGS)),
    "trace": (["trace", "--workload", "FwSoft"], ("--telemetry-out", "--ledger")),
    "cache": (["cache", "stats"], ("--cache-dir",)),
    "table": (["table", "2"], ()),
    "ledger": (["ledger", "list"], ("--ledger",)),
    "diff": (["diff", "-1", "-2"], ("--cache-dir", "--no-cache", "--ledger")),
}
UNREAD_FLAGS = [
    (command, flag)
    for command, (_argv, reads) in COMMAND_LINES.items()
    for flag in EXECUTOR_FLAGS
    if flag not in reads
]


def test_every_command_has_a_command_line():
    assert list(COMMAND_LINES) == list(cli.COMMANDS)


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
@pytest.mark.parametrize(("command", "flag"), UNREAD_FLAGS)
def test_an_executor_flag_the_command_does_not_read_exits_2(command, flag, before, capsys):
    argv, _reads = COMMAND_LINES[command]
    option = [flag, *EXECUTOR_FLAGS[flag]]
    line = [*option, *argv] if before else [*argv, *option]
    # parse only: a wrongly accepted flag must not start a simulation
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args(["--scale", "0.1", "--cus", "2", *line])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    if before:
        assert f"error: {flag} goes after the command name: repro-gpu-cache COMMAND {flag}" in err
    else:
        assert f"error: unrecognized arguments: {' '.join(option)}" in err


@pytest.mark.parametrize("option", [["--jobs", "2"], ["--jobs=2"], ["--no-cache"]])
def test_an_executor_flag_before_the_command_that_reads_it_exits_2(option, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args(["--scale", "0.1", "--cus", "2", *option, "sweep-all"])
    assert exit_info.value.code == 2
    flag = option[0].split("=")[0]
    assert f"error: {flag} goes after the command name" in capsys.readouterr().err


def test_registering_the_commands_adds_none_of_their_options():
    parser = cli.build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for command in subparsers.choices.values():
        assert [action.dest for action in command._actions] == ["help"]


if __name__ == "__main__":  # re-record the pin
    PIN.write_text(json.dumps(describe(cli.build_parser()), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PIN}")
