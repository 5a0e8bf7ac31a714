"""Output pins for the study drivers and their CLI commands.

The studies (static sweeps, Figure 14, device scaling, interference)
and the CLI commands that print them share one grid path.
Two things must survive any change to that path:

* the store keys: the sorted fingerprints of the jobs each study's
  executor simulates (its ledger's ``job`` entries), so each study asks
  for the same jobs;
* the CLI output: stdout, the ``--json-out`` artifact and the stderr
  ``simulated=`` accounting line of ``sweep-all``, ``adaptive``,
  ``topology`` and ``serve``.

Store keys embed a digest of every ``repro`` source file, so the tests pin
:func:`repro.fingerprint.code_digest` to a constant: the key pins guard job
identity under a fixed code digest.  Any source edit starts new keys in a
real store anyway (``TestCodeStaleness`` checks that).  If a change alters
these outputs on purpose, re-record with
``PYTHONPATH=src python tests/integration/test_study_equivalence.py`` and
say so in the commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path
from typing import Callable

import pytest

import repro.fingerprint
from repro import cli
from repro.adaptive import AdaptiveConfig
from repro.config import scaled_config
from repro.core.policies import CACHE_R, CACHE_RW, UNCACHED
from repro.experiments import (
    ExperimentRunner,
    figure14_adaptive,
    figure_interference,
    figure_scaling,
)
from repro.obs.ledger import RunLedger
from repro.streams import mix_by_name

TINY = scaled_config(2)
FAST = AdaptiveConfig(epoch_cycles=500, min_leader_accesses=8)
FIXED_CODE_DIGEST = "0" * 64


def _digest(obj: object) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _sweep(runner: ExperimentRunner, _tmp: Path) -> object:
    sweep = runner.sweep(policies=(UNCACHED, CACHE_RW), workload_names=("FwSoft", "SGEMM"))
    return {f"{w}/{p}": report.to_dict() for (w, p), report in sweep.reports.items()}


def _figure14(runner: ExperimentRunner, _tmp: Path) -> object:
    return figure14_adaptive(runner, FAST, ("FwSoft", "SGEMM"))


def _scaling(runner: ExperimentRunner, _tmp: Path) -> object:
    return figure_scaling(
        runner, devices=(1, 2), policies=(CACHE_R, CACHE_RW), workload_names=("FwSoft",)
    )


def _interference(runner: ExperimentRunner, _tmp: Path) -> object:
    mixes = [mix_by_name("mha+fwlstm"), mix_by_name("gemm-burst")]
    return figure_interference(runner, mixes=mixes, policies=(CACHE_RW,))


STUDIES: dict[str, Callable[[ExperimentRunner, Path], object]] = {
    "sweep": _sweep,
    "figure14_adaptive": _figure14,
    "figure_scaling": _scaling,
    "figure_interference": _interference,
}

#: argv per CLI command (--no-cache keeps the stderr line free of paths);
#: JSON_OUT is replaced by a file under a temporary directory
COMMON = ["--scale", "0.2", "--cus", "2"]
COMMANDS: dict[str, list[str]] = {
    "sweep-all": [
        *COMMON, "sweep-all", "--no-cache", "--workloads", "FwSoft", "SGEMM",
    ],
    "adaptive": [
        *COMMON, "adaptive", "--no-cache", "--workloads", "FwSoft",
        "--epoch-cycles", "500", "--json-out", "JSON_OUT",
    ],
    "topology": [
        *COMMON, "topology", "--no-cache", "--workloads", "FwSoft",
        "--policies", "CacheR", "--devices", "1", "2", "--json-out", "JSON_OUT",
    ],
    "serve": [
        *COMMON, "serve", "--no-cache", "--mix", "mha+fwlstm", "--policies", "CacheRW",
        "--json-out", "JSON_OUT",
    ],
}

#: study -> (submitted jobs, digest of their sorted fingerprints,
#: digest of the study's result)
EXPECTED_STUDIES: dict[str, tuple[int, str, str]] = {
    "sweep": (4, "840213a99a9bc5791d2e83f786082ad706bb8c7446daa98b3373d218d920bbab", "bf06c69fa634fff257868fab63a49c283c5fe175cfea189eb27583499e6d1ac8"),
    "figure14_adaptive": (10, "c9a5661b6fd08db516cbf483a9c7096c1323b00e2dc0ebfcbd87b4730f0b07ce", "fa5b47e82c1d8ef4738497034b465093e5db8348820f41f0dda0292d0a6ea10b"),
    "figure_scaling": (4, "2e0b313501bbdbc7a84fd3b16c83c2d983b1c02f26399099421123ca86e43875", "2fa552075ded7402b69b0582b4ee9605d85d5f26857e9d99199f50b71d82db53"),
    "figure_interference": (8, "470ebc64f464c4f45396d8e10cf0f5a71fa3e4cc9095d38dcb9ec805c399143b", "d037bcf8efa2ddf18d8c826691ca9a1b46d6c38d54aaa2be2a34b18bd577abef"),
}

#: command -> (stdout digest, --json-out digest or None, stderr stats line)
EXPECTED_COMMANDS: dict[str, tuple[str, str | None, str]] = {
    "sweep-all": ("1d8cb442f8cb8887bc5421578dbba18fdc7d3adcf36a818af7c75a2d61199778", None, "[sweep-all] grid=2x6 jobs=1 store=disabled simulated=12 loaded=0"),
    "adaptive": ("4cafb9b3054ac0ec75b52e6df178b2d3e645a9cf8c68cea953ef998cee971abc", "1b3e0c6296bbfd40bd102c46e4e520654b03718c9c58bf7c6dcc502defa2c7f4", "[adaptive] workloads=1 jobs=1 store=disabled simulated=5 loaded=0"),
    "topology": ("d436af60c2e00c0d5c1caa1f9a3dc0725198391e2110030d66e7c2a873b20c96", "47a1fd5b404309291f49f99e0e816363a2e2db776423154b9c572ef2bd6f8548", "[topology] grid=1x1x2 jobs=1 store=disabled simulated=2 loaded=0"),
    "serve": ("85cb3f0bca54c393caa04bcc8dc072816c9ed6ff98e79e39e68945a07064aedd", "2c1923410122a5d5b4d9ecaca0b6abb2f1f0b8d6137be39f005a76766f5a20dd", "[serve] grid=1x1x2 jobs=1 store=disabled simulated=4 loaded=0"),
}


def record_study(name: str, tmp: Path) -> tuple[int, str, str]:
    ledger = tmp / f"{name}.ledger.jsonl"
    runner = ExperimentRunner(scale=0.1, config=TINY, ledger_path=str(ledger))
    result = STUDIES[name](runner, tmp)
    keys = sorted(
        entry["fingerprint"] for entry in RunLedger(ledger).entries() if entry["kind"] == "job"
    )
    return len(keys), _digest(keys), _digest(result)


def record_command(name: str, tmp: Path) -> tuple[str, str | None, str]:
    json_out = tmp / "out.json"
    argv = [str(json_out) if arg == "JSON_OUT" else arg for arg in COMMANDS[name]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert cli.main(argv) == 0
    stats = [line for line in stderr.getvalue().splitlines() if " simulated=" in line]
    assert len(stats) == 1, stderr.getvalue()
    json_digest = (
        hashlib.sha256(json_out.read_bytes()).hexdigest() if "JSON_OUT" in COMMANDS[name] else None
    )
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest(), json_digest, stats[0]


@pytest.fixture(autouse=True)
def fixed_code_digest(monkeypatch):
    monkeypatch.setattr(repro.fingerprint, "code_digest", lambda: FIXED_CODE_DIGEST)


@pytest.mark.parametrize("name", list(STUDIES))
def test_study_store_keys_and_results_are_pinned(name: str, tmp_path: Path) -> None:
    assert record_study(name, tmp_path) == EXPECTED_STUDIES[name]


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_output_bytes_are_pinned(name: str, tmp_path: Path) -> None:
    assert record_command(name, tmp_path) == EXPECTED_COMMANDS[name]


if __name__ == "__main__":  # re-record the pins
    repro.fingerprint.code_digest = lambda: FIXED_CODE_DIGEST  # type: ignore[assignment]
    with tempfile.TemporaryDirectory() as scratch:
        print("EXPECTED_STUDIES = {")
        for study in STUDIES:
            print(f"    {study!r}: {record_study(study, Path(scratch))!r},")
        print("}")
        print("EXPECTED_COMMANDS = {")
        for command in COMMANDS:
            print(f"    {command!r}: {record_command(command, Path(scratch))!r},")
        print("}")
