"""Every repro process runs numpy's BLAS on one thread.

Importing :mod:`repro` before numpy pins the BLAS pool to one thread,
the way the CLI, ``repro serve`` and the pool workers start.  The probe
runs in a fresh interpreter whose environment lacks the pinning
variables, and counts the process's threads (``/proc/self/task``) after
a product large enough to wake every BLAS helper thread.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="counts /proc/self/task; one CPU runs one BLAS thread either way",
)

#: Variables the package pins, plus the fallbacks OpenBLAS also reads.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
)

PROBE = """
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor


def blas_threads():
    import numpy as np

    a = np.ones((512, 512))
    a @ a
    return len(os.listdir("/proc/self/task"))


if __name__ == "__main__":
    import repro  # noqa: F401  (before numpy, as the CLI does)

    counts = {"parent": blas_threads()}
    for method in ("fork", "spawn", "forkserver"):
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            counts[method] = pool.submit(blas_threads).result(timeout=120)
    print(json.dumps(counts))
"""


def _thread_counts(tmp_path: Path, **overrides: str) -> dict[str, int]:
    script = tmp_path / "probe.py"
    script.write_text(PROBE)
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    env.update(overrides)
    done = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_one_blas_thread_in_the_process_and_every_pool_worker(tmp_path):
    counts = _thread_counts(tmp_path)
    assert counts == {"parent": 1, "fork": 1, "spawn": 1, "forkserver": 1}


def test_a_thread_count_the_user_set_wins(tmp_path):
    counts = _thread_counts(tmp_path, OPENBLAS_NUM_THREADS="2")
    assert counts == {"parent": 2, "fork": 2, "spawn": 2, "forkserver": 2}
