"""Discovery stages draw every run from once-collected clean signatures.

``ProfileStage`` and ``RankifyStage`` collect each trace's BBV/LDV once
and jitter copies of it per discovery run.  Their observations must
equal, bit for bit, the per-run expression they replace::

    collect_bbv(trace) * np.exp(sigma[:, None] * gen.standard_normal(shape))

(and its LDV twin, drawn next from the same generator), and nothing may
be memoised on the trace — it lives as long as the whole cell.

Their cache payloads hold those clean signatures, not the runs: a
decode draws every run again and must reproduce the live observations
bit for bit without executing a trace or the perf model.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.api.context import StageContext
from repro.api.rank_stages import RankifyStage
from repro.api.stages import ProfileStage
from repro.api.sweep import RANK_THREADS
from repro.exec.stagestore import StageStore
from repro.experiments.config import default_config
from repro.hw.pmu import INSTRUCTIONS
from repro.instrumentation.bbv import collect_bbv
from repro.instrumentation.ldv import collect_ldv
from repro.isa.descriptors import ISA
from repro.runtime.interleave import signature_jitter_sigma
from repro.workloads.distributed import DistributedWorkload
from repro.workloads.registry import create

QUICK = default_config("quick").pipeline_config()


def _per_run_expression(trace, weights, gen):
    """One discovery run's BBV and LDV, collected and jittered from scratch."""
    sigma = signature_jitter_sigma(weights, trace.threads)
    bbv = collect_bbv(trace)
    ldv = collect_ldv(trace)
    bbv = bbv * np.exp(sigma[:, None] * gen.standard_normal(bbv.shape))
    ldv = ldv * np.exp(sigma[:, None] * gen.standard_normal(ldv.shape))
    return bbv, ldv


def _assert_observation(obs, trace, weights, gen, run):
    bbv, ldv = _per_run_expression(trace, weights, gen)
    assert np.array_equal(obs.bbv, bbv)
    assert np.array_equal(obs.ldv, ldv)
    assert np.array_equal(obs.weights, weights)
    assert obs.run_index == run


def _memo_footprint(trace) -> tuple[set, set]:
    """What a plain collection leaves on the trace: attributes and memo keys."""
    collect_bbv(trace)
    collect_ldv(trace)
    return set(vars(trace)), set(trace._memo)


def _discovery_rng(ctx):
    label = ctx.binary(ctx.discovery_isa).label
    return ctx.tree.child("discovery", ctx.app.name, ctx.threads, label)


def test_profile_stage_matches_per_run_expression():
    ctx = StageContext(create("miniFE"), threads=8, config=QUICK)
    trace = ctx.trace(ISA.X86_64)
    footprint = _memo_footprint(trace)

    ProfileStage().run(ctx)
    observations = ctx.require("observations")

    assert _memo_footprint(trace) == footprint
    weights = ctx.counters_on(ISA.X86_64).bp_instructions()
    rng = _discovery_rng(ctx)
    assert len(observations) == QUICK.discovery_runs
    for run, obs in enumerate(observations):
        _assert_observation(obs, trace, weights, rng.generator("run", run), run)


def test_rankify_stage_matches_per_run_expression():
    ctx = StageContext(
        DistributedWorkload(create("MCB"), 2), threads=RANK_THREADS, config=QUICK
    )
    trace = ctx.trace(ISA.X86_64)
    footprints = [_memo_footprint(trace.rank_trace(r)) for r in range(trace.ranks)]

    RankifyStage().run(ctx)
    observations = ctx.require("rank_observations")

    assert [_memo_footprint(trace.rank_trace(r)) for r in range(trace.ranks)] == footprints
    counters = ctx.counters_on(ISA.X86_64)
    rng = _discovery_rng(ctx)
    assert len(observations) == QUICK.discovery_runs
    for run, per_rank in enumerate(observations):
        assert len(per_rank) == trace.ranks
        for rank, obs in enumerate(per_rank):
            cols = trace.rank_columns(rank)
            weights = counters.values[:, cols, INSTRUCTIONS].sum(axis=1)
            gen = rng.generator("run", run, "rank", rank)
            _assert_observation(obs, trace.rank_trace(rank), weights, gen, run)


def _matrices(tree) -> int:
    """2-D arrays anywhere in a payload tree."""
    if isinstance(tree, np.ndarray):
        return int(tree.ndim == 2)
    if isinstance(tree, dict):
        return sum(_matrices(value) for value in tree.values())
    if isinstance(tree, list):
        return sum(_matrices(value) for value in tree)
    return 0


def _flat(observations) -> list:
    """Observations in run order (rank order within a run)."""
    return [
        obs
        for item in observations
        for obs in (item if isinstance(item, list) else [item])
    ]


def _same_array(left, right) -> bool:
    return (
        left.dtype == right.dtype
        and left.shape == right.shape
        and left.tobytes() == right.tobytes()
    )


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize(
    "stage, job, threads, artifact, traces",
    [
        (ProfileStage(), lambda: create("miniFE"), 8, "observations", 1),
        (
            RankifyStage(),
            lambda: DistributedWorkload(create("MCB"), 2),
            RANK_THREADS,
            "rank_observations",
            2,
        ),
    ],
    ids=["profile", "rankify"],
)
def test_decode_reproduces_live_discovery_without_executing(
    stage, job, threads, artifact, traces, runs, tmp_path, monkeypatch
):
    config = replace(QUICK, discovery_runs=runs)
    live = StageContext(job(), threads=threads, config=config)
    stage.run(live)

    store = StageStore(tmp_path)
    store.store("0" * 64, stage.name, stage.encode(live))
    payload = store.load("0" * 64, stage.name)
    # One BBV/LDV pair per trace (per rank), however many runs.
    assert _matrices(payload) == 2 * traces

    def refuse(*args, **kwargs):
        raise AssertionError("decoding executed a trace or the perf model")

    monkeypatch.setattr("repro.api.context.execute_program", refuse)
    monkeypatch.setattr("repro.runtime.distributed.execute_distributed", refuse)
    monkeypatch.setattr("repro.hw.perf.PerfModel.true_counters", refuse)
    fresh = StageContext(job(), threads=threads, config=config)
    stage.decode(payload, fresh)

    expected = _flat(live.require(artifact))
    decoded = _flat(fresh.require(artifact))
    assert len(decoded) == len(expected) == runs * traces
    for got, want in zip(decoded, expected, strict=True):
        assert _same_array(got.bbv, want.bbv)
        assert _same_array(got.ldv, want.ldv)
        assert _same_array(got.weights, want.weights)
        assert got.run_index == want.run_index
