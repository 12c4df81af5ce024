"""E-PAR — study-graph engine speed-up: jobs=1 vs jobs=4.

Times the same quick-protocol cross-architecture sweep (every evaluated
app at 1 and 8 threads, cache disabled) executed serially and on the
four-worker process backend, so the BENCH_*.json trajectory captures the
engine's parallel speed-up as hardware allows.  On a single-core runner
the two are expected to tie; on a 4-core machine the parallel pass
should approach the serial time divided by the core count (minus the
dominant LULESH cell, which bounds the critical path).

Shape contract: both passes execute every cell, and the parallel
results are bit-identical to the serial ones — the engine's core
determinism guarantee.
"""

import pytest

from benchmarks.conftest import run_once
from repro.exec.scheduler import StudyScheduler
from repro.experiments.config import default_config
from repro.experiments.runner import crossarch_request
from repro.workloads.registry import EVALUATED_APPS

_THREAD_COUNTS = (1, 8)


def _sweep_config(jobs):
    return default_config(
        "quick", cache_dir="", thread_counts=_THREAD_COUNTS, jobs=jobs
    )


def _run_sweep(config):
    scheduler = StudyScheduler(config)
    requests = [
        crossarch_request(app, threads)
        for app in EVALUATED_APPS
        for threads in _THREAD_COUNTS
    ]
    results = scheduler.run(requests)
    assert scheduler.stats.executed == len(requests)
    return results


@pytest.mark.parametrize("jobs", [1, 4], ids=["jobs1", "jobs4"])
def test_sweep_parallel(benchmark, jobs):
    results = run_once(benchmark, _run_sweep, _sweep_config(jobs))
    assert len(results) == len(EVALUATED_APPS) * len(_THREAD_COUNTS)


def test_parallel_matches_serial():
    serial = _run_sweep(_sweep_config(1))
    parallel = _run_sweep(_sweep_config(4))
    assert parallel == serial
