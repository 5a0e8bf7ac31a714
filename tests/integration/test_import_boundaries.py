"""Import-boundary guard: an entry point loads only the modules its run uses.

Package ``__init__`` modules export lazily and optional subsystems are
imported where a run enables them, so start-up stays cheap.  One stray
top-level import undoes that without failing any functional test; these
checks catch it.  Each scenario runs in a fresh interpreter and lists the
modules that must *not* be in ``sys.modules`` when it finishes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import cli

REPO_ROOT = Path(__file__).resolve().parents[2]

#: the warm-store sweep: a small grid, every default policy and figure
SWEEP_ARGV = ["--scale", "0.2", "--cus", "2", "sweep-all", "--workloads", "FwSoft", "SGEMM"]

#: a warm sweep re-plots from the store; it never touches the simulator,
#: the other studies or any other command's module
SWEEP_FORBIDDEN = (
    "repro.session",
    "repro.engine.event_queue",
    "repro.memory.cache",
    "repro.gpu.gpu",
    "repro.experiments.adaptive",
    "repro.experiments.interference",
    "repro.experiments.scaling",
    *sorted(
        {f"repro.cli.{command.module}" for command in cli.COMMANDS.values()}
        - {f"repro.cli.{cli.COMMANDS['sweep-all'].module}"}
    ),
)

#: optional subsystems a static, exact single-workload run never enables
#: (the host profiler and its stdlib ``cProfile`` are loaded only by
#: ``TelemetryConfig(profile=True)``)
STATIC_RUN_FORBIDDEN = (
    "cProfile",
    "pstats",
    "repro.accel.sampling",
    "repro.adaptive.controller",
    "repro.obs.diff",
    "repro.telemetry.profiler",
    "repro.telemetry.trace",
    "repro.topology.partition",
    "repro.experiments",
)

#: the process-pool machinery: a warm sweep simulates nothing, and a
#: sharded run whose shards are all equal simulates its one distinct
#: shard in-process, so neither starts a pool
POOL_MODULES = ("concurrent.futures.process", "multiprocessing")

#: prints every module the scenario loaded as the last stdout line
_REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def _loaded_modules(script: str, *argv: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", script + _REPORT, *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_warm_sweep_all_loads_no_simulator(tmp_path):
    store = str(tmp_path / "store")
    assert cli.main([*SWEEP_ARGV, "--cache-dir", store]) == 0

    script = (
        "import contextlib, io, sys\n"
        "import repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert repro.cli.main(sys.argv[1:]) == 0\n"
    )
    telemetry = tmp_path / "telemetry.json"
    loaded = _loaded_modules(
        script, *SWEEP_ARGV, "--jobs", "2", "--cache-dir", store,
        "--telemetry-out", str(telemetry),
    )
    assert json.loads(telemetry.read_text())["executor"]["runs_simulated"] == 0
    assert "repro.experiments.runner" in loaded  # the sweep really ran
    assert sorted(loaded.intersection((*SWEEP_FORBIDDEN, *POOL_MODULES))) == []


def test_static_exact_run_loads_no_optional_subsystem():
    script = (
        "from repro import SimulationSession, scaled_config, get_workload\n"
        "session = SimulationSession(policy='CacheR', config=scaled_config(2))\n"
        "assert session.run(get_workload('FwSoft', scale=0.1)).cycles > 0\n"
    )
    loaded = _loaded_modules(script)
    assert "repro.memory.cache" in loaded  # the simulator really ran
    assert sorted(loaded.intersection(STATIC_RUN_FORBIDDEN)) == []


def test_identical_shards_load_no_process_pool():
    script = (
        "from repro import ShardConfig, StreamConfig, scaled_config, simulate\n"
        "streams = [StreamConfig('FwSoft', scale=0.1, cu_share='partitioned')] * 2\n"
        "report = simulate(policy='CacheR', config=scaled_config(2), streams=streams,\n"
        "                  shards=ShardConfig(num_shards=2))\n"
        "assert report.counters['shard.count'] == 2\n"
    )
    loaded = _loaded_modules(script)
    assert "repro.accel.shard" in loaded  # the sharded path really ran
    assert sorted(loaded.intersection(POOL_MODULES)) == []


def test_parsing_serve_loads_no_run_commands():
    script = (
        "import repro.cli\n"
        "args = repro.cli.build_parser().parse_args(['serve', '--mix', 'mha+fwlstm'])\n"
        "assert args.mix == ['mha+fwlstm']\n"
    )
    loaded = _loaded_modules(script)
    assert "repro.cli.studies" in loaded  # the serve parser really built
    assert "repro.cli.runs" not in loaded
