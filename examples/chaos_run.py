#!/usr/bin/env python
"""Fault injection and self-healing: break the run, keep the numbers.

The execution engine carries a deterministic fault-injection plane
(:mod:`repro.exec.faults`): a seeded :class:`FaultPlan` arms worker
kills, in-cell exceptions, torn cache writes and ENOSPC at configured
rates, and per-cell supervision (bounded retries with deterministic
jittered backoff, pool respawns, quarantine) absorbs them.  The
contract this example demonstrates end to end:

* a chaos run's payloads are **byte-identical** to a fault-free run —
  faults cost retries, never numbers;
* a cell that exhausts its retry budget quarantines with an
  actionable diagnostic instead of wedging the grid;
* running an interrupted grid again resumes it: finished cells
  rebuild from the stores, and only the unfinished cells compute a
  discovery.

The same drill is available as a one-shot CLI verdict::

    repro chaos figure2 --quick --faults seed=2017,kill=0.4,exc=0.4,max=1

Usage::

    python examples/chaos_run.py
"""

import tempfile
from pathlib import Path

from repro.exec.faults import install_plan, reset_fault_state
from repro.exec.scheduler import StudyScheduler, _canonical
from repro.exec.stagestore import stage_store_for
from repro.exec.supervise import QuarantinedCellError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import crossarch_request
from repro.experiments.sweep import rank_request, scaling_request

DRILL = "seed=2017,kill=0.6,exc=0.6,torn=0.6,enospc=0.3,max=1"


def _config(cache_dir="", **overrides) -> ExperimentConfig:
    base = dict(
        thread_counts=(1, 2),
        discovery_runs=2,
        repetitions=3,
        cache_dir=cache_dir,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _fresh_plane() -> None:
    """Fault plans install process-wide; reset between runs."""
    install_plan(None)
    reset_fault_state()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-example-") as tmp:
        drill(Path(tmp))


def drill(tmp: Path) -> None:
    """Run the four steps with their caches under ``tmp``."""
    requests = [
        crossarch_request(app, threads)
        for app in ("MCB", "graph500")
        for threads in (1, 2)
    ]

    # 1. The reference: the same grid, no faults.
    _fresh_plane()
    reference = StudyScheduler(_config()).run(requests)
    print(f"reference   : {len(reference)} cells, fault-free")

    # 2. The drill: every fault class armed at high rate.  max=1 keeps
    # the schedule convergent under the default retry budget.
    _fresh_plane()
    chaos = StudyScheduler(
        _config(cache_dir=str(tmp / "chaos"), faults=DRILL, retry_backoff=0.0)
    )
    survived = chaos.run(requests)
    stats = chaos.stats
    print(
        f"chaos run   : retries={stats.retries} "
        f"respawns={stats.respawns} "
        f"retry-verified={stats.retry_verified} "
        f"quarantined={stats.quarantined}"
    )

    identical = all(
        _canonical(survived[request]) == _canonical(reference[request])
        for request in requests
    )
    print(f"byte-identity vs fault-free run: {'OK' if identical else 'FAIL'}")
    assert identical, "faults changed the numbers — determinism is broken"

    # 3. Quarantine: an unbounded fault schedule (max=0 → every
    # attempt fails) exhausts the budget and names the cell instead of
    # hanging or corrupting the grid.
    _fresh_plane()
    doomed = StudyScheduler(
        _config(
            cache_dir=str(tmp / "doomed"),
            faults="seed=1,exc=1.0,max=0",
            cell_retries=1,
            retry_backoff=0.0,
        )
    )
    try:
        doomed.run([requests[0]])
    except QuarantinedCellError as err:
        print(f"quarantine  : {str(err).splitlines()[0]}")
    else:
        raise AssertionError("unbounded faults should have quarantined")

    # 4. Resume by running again: run half a grid, stop (the simulated
    # SIGKILL point), then run the whole grid.  Sweep cells — both
    # axes, thread teams and ranks — are cache-exempt, but the stage
    # store keeps each cell's selection and measurement as it
    # completes, so the rerun rebuilds the finished half from them and
    # computes only the other half's discoveries.
    _fresh_plane()
    cache = str(tmp / "resume")
    grid = [scaling_request("MCB", threads) for threads in (1, 2)] + [
        rank_request("graph500", ranks) for ranks in (1, 2)
    ]
    StudyScheduler(_config(cache_dir=cache)).run(grid[:2])

    rerun = StudyScheduler(_config(cache_dir=cache))
    stage_stats = stage_store_for(rerun.config).stats
    before = stage_stats.snapshot()
    results = rerun.run(grid)
    delta = stage_stats.delta_since(before)
    loaded = delta["hits"].get("select", 0)
    computed = delta["misses"].get("select", 0)
    print(f"rerun       : {loaded} discoveries loaded, {computed} computed")
    assert loaded == 2 and computed == 2

    _fresh_plane()
    uninterrupted = StudyScheduler(_config()).run(grid)
    assert all(
        _canonical(results[request]) == _canonical(uninterrupted[request])
        for request in grid
    ), "rerun payloads must match an uninterrupted run"
    print("rerun payloads byte-identical to an uninterrupted run: OK")


if __name__ == "__main__":
    main()
