"""Discovery holds one run at a time, and measure one target at a time.

``observations`` and ``signatures`` are run sequences built when read,
and run r of ``observations`` is a sequence over ranks.  A cold graph
must therefore draw each ``(run, rank)`` observation exactly once,
inside ``cluster`` and right before that run is clustered; ``select``
must read the weights ``cluster`` left behind instead of drawing a run
again; run r's signature matrix must be gone before run r + 1's is
built; signing a run must keep only its jittered nonzeros; and
``measure`` must let go of each target's counters once it is done.
"""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.api import PipelineConfig, build_pipeline, stages
from repro.api.builder import StagePipeline
from repro.api.context import StageContext
from repro.api.sweep import RANK_THREADS
from repro.core.signatures import build_signatures
from repro.hw.machines import INTEL_I7_3770
from repro.hw.measure import MeasurementProtocol
from repro.instrumentation.collector import CleanSignatures
from repro.mem.ldv import N_DISTANCE_BINS
from repro.workloads.distributed import DistributedWorkload
from repro.workloads.registry import create

RUNS = 3
RANKS = 2
CONFIG = PipelineConfig(
    discovery_runs=RUNS, protocol=MeasurementProtocol(repetitions=3)
)


def _default_run():
    return build_pipeline("MCB", threads=2, config=CONFIG).run()


def _rank_run():
    job = DistributedWorkload("MCB", ranks=RANKS)
    return StagePipeline(job, RANK_THREADS, False, CONFIG, targets=(INTEL_I7_3770,)).run()


#: Each pipeline and its ranks per run.
PIPELINES = pytest.mark.parametrize(
    "execute, ranks", [(_default_run, 1), (_rank_run, RANKS)], ids=["default", "ranks"]
)


@PIPELINES
def test_each_run_is_drawn_once_right_before_it_is_clustered(execute, ranks, monkeypatch):
    events: list[tuple] = []
    observe = CleanSignatures.observe
    simpoint = stages.run_simpoint

    def spy_observe(self, gen, run_index):
        events.append(("observe", run_index, id(self)))
        return observe(self, gen, run_index)

    def spy_simpoint(*args, **kwargs):
        events.append(("cluster",))
        return simpoint(*args, **kwargs)

    monkeypatch.setattr(CleanSignatures, "observe", spy_observe)
    monkeypatch.setattr(stages, "run_simpoint", spy_simpoint)
    run = execute()

    assert len(run.selections) == RUNS
    draws = [event[1:] for event in events if event[0] == "observe"]
    assert len(draws) == len(set(draws)) == RUNS * ranks
    # Select and the evaluation stages draw nothing: every draw sits
    # right before the clustering of its own run.
    assert [event[:2] for event in events] == [
        event
        for run_index in range(RUNS)
        for event in [("observe", run_index)] * ranks + [("cluster",)]
    ]


@PIPELINES
def test_run_matrices_are_freed_before_the_next_run_is_built(execute, ranks, monkeypatch):
    build = stages.build_signatures
    matrices: list[weakref.ref] = []
    alive_at_build: list[int] = []

    def spy_build(*args, **kwargs):
        alive_at_build.append(sum(ref() is not None for ref in matrices))
        signatures = build(*args, **kwargs)
        matrices.append(weakref.ref(signatures))
        matrices.extend(weakref.ref(half.values) for half in signatures.bbv + signatures.ldv)
        return signatures

    monkeypatch.setattr(stages, "build_signatures", spy_build)
    execute()

    assert alive_at_build == [0] * RUNS
    assert all(ref() is None for ref in matrices)


def test_signing_a_rank_run_keeps_only_the_jittered_nonzeros():
    # Four ranks of two threads.  Signing used to fill the whole
    # (n_bp, D) matrix, about 1.3 times its bytes at the peak; now a
    # run keeps each rank's jittered nonzeros, drawn a chunk of rows at
    # a time, and builds no row until it is projected.
    ctx = StageContext(
        DistributedWorkload("AMGMk", ranks=4), threads=RANK_THREADS, config=CONFIG
    )
    stages.ProfileStage().run(ctx)
    observations = ctx.require("observations")

    tracemalloc.start()
    try:
        signatures = build_signatures(observations[0], CONFIG.bbv_weight)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    dense_bytes = signatures.shape[0] * signatures.shape[1] * 8
    assert peak < 0.6 * dense_bytes
    assert retained < 0.25 * dense_bytes


@PIPELINES
def test_measure_releases_every_targets_counters_and_means(execute, ranks):
    # measure is the last stage to read a target's counters, means and
    # per-repetition reads; it drops each target's once it is done.
    context = execute().context
    assert context.artifacts["evaluations"]
    assert (context._counters, context._measured, context._reps) == ({}, {}, {})


def test_profile_keeps_only_the_clean_nonzeros():
    # AMGMk's clean BBV is 25% nonzero and its LDV 13%: kept as flat
    # indices and values, the clean signatures of four ranks take about
    # a third of their dense bytes, and no dense iteration tensor is
    # left on a rank trace.
    ctx = StageContext(
        DistributedWorkload(create("AMGMk"), 4), threads=RANK_THREADS, config=CONFIG
    )
    trace = ctx.trace(ctx.discovery_isa)
    ctx.counters_on(ctx.discovery_isa)
    dense_bytes = sum(
        rank.n_barrier_points * rank.threads * (rank.n_blocks_total + N_DISTANCE_BINS) * 8
        for rank in trace.rank_traces
    )

    tracemalloc.start()
    try:
        stages.ProfileStage().run(ctx)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert retained < 0.5 * dense_bytes
    for rank in trace.rank_traces:
        tensor = (rank.n_barrier_points, rank.n_blocks_total, rank.threads)
        assert not [value for value in _held(rank) if np.shape(value) == tensor]


def _held(trace):
    """What a trace holds: each attribute, and each value of a dict one."""
    for value in vars(trace).values():
        yield from value.values() if isinstance(value, dict) else [value]
