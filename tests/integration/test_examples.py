"""Integration tests: every example script runs clean at smoke scale.

The documentation leans on ``examples/`` for its runnable code; this
parametrised test executes each script in a subprocess with
``REPRO_SCALE=quick`` and asserts a zero exit, so the documented code
cannot rot.  Scripts are expected to honour ``REPRO_SCALE`` (directly
or through :func:`repro.experiments.config.default_config`) to stay
smoke-fast.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=[path.stem for path in EXAMPLES]
)
def test_example_runs_clean(script, tmp_path):
    env = dict(os.environ)
    env["REPRO_SCALE"] = "quick"
    # Whatever a script puts in the temp directory, it must remove.
    temp = tmp_path / "tmp"
    temp.mkdir()
    env["TMPDIR"] = str(temp)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,  # examples must not depend on the repo cwd
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"{script.name} exited {result.returncode}\n"
        f"--- stdout ---\n{result.stdout[-2000:]}\n"
        f"--- stderr ---\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script.name} printed nothing"
    assert not list(temp.iterdir()), f"{script.name} left temp files behind"
