"""Smoke tests for the scripts under ``examples/``.

Every example runs as a subprocess at tiny scale, the way a reader would
invoke it, so a library refactor that breaks an example's imports or call
signatures fails the tier-1 suite instead of rotting silently.  Output
content is the examples' own business; these tests only require a clean
exit and a rendered table.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES_DIR = REPO_ROOT / "examples"

#: script name -> tiny-scale argv (keeps each run to a few seconds)
EXAMPLES = {
    "quickstart.py": ["FwFc", "0.05"],
    "streaming_inference_study.py": ["0.05"],
    "rnn_translation_sweep.py": ["0.05"],
}


def test_every_example_is_covered():
    """A new example must be added to the smoke matrix (or this fails)."""
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXAMPLES), (
        f"examples/ and the smoke matrix drifted: "
        f"only-on-disk={sorted(scripts - set(EXAMPLES))} "
        f"only-in-matrix={sorted(set(EXAMPLES) - scripts)}"
    )


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_runs_clean_at_tiny_scale(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *EXAMPLES[script]],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, (
        f"{script} exited {result.returncode}\n"
        f"stdout:\n{result.stdout[-2000:]}\nstderr:\n{result.stderr[-2000:]}"
    )
    # every example reports something substantial (tables or verdicts)
    assert len(result.stdout.splitlines()) >= 5, (
        f"{script} printed almost nothing:\n{result.stdout}"
    )
