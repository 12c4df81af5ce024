"""Discovery draws every run from once-collected clean signatures.

``ProfileStage`` collects each rank's BBV/LDV once (a shared-memory
trace is one rank), keeps their nonzeros and jitters those per
discovery run.  The dense form of its observations must equal, bit for
bit, the per-run expression they replace::

    collect_bbv(trace) * np.exp(sigma[:, None] * gen.standard_normal(shape))

(and its LDV twin, drawn next from the same generator), compared as
bit patterns so that a zero's sign counts.  Nothing may be memoised
on the trace: it lives as long as the whole cell.
"""

from __future__ import annotations

import numpy as np

from repro.api.context import StageContext
from repro.api.stages import ProfileStage
from repro.api.sweep import RANK_THREADS
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


def _bits(array):
    """The float64 bit patterns: ``np.array_equal`` takes -0.0 for 0.0."""
    return array.view(np.int64)


def _assert_observation(obs, trace, weights, gen, run):
    bbv, ldv = _per_run_expression(trace, weights, gen)
    assert np.array_equal(_bits(obs.bbv.rows(0, len(bbv))), _bits(bbv))
    assert np.array_equal(_bits(obs.ldv.rows(0, len(ldv))), _bits(ldv))
    assert np.array_equal(obs.weights, weights)
    assert obs.run_index == run


def _footprint(trace) -> dict:
    """What a plain collection leaves on the trace: its attributes."""
    collect_bbv(trace)
    collect_ldv(trace)
    return {name: id(value) for name, value in vars(trace).items()}


def _discovery_rng(ctx):
    label = ctx.binary(ctx.discovery_isa).label
    return ctx.tree.child("discovery", ctx.app.name, ctx.threads, label)


def test_profile_stage_matches_per_run_expression():
    ctx = StageContext(create("miniFE"), threads=8, config=QUICK)
    trace = ctx.trace(ISA.X86_64)
    footprint = _footprint(trace)

    ProfileStage().run(ctx)
    observations = ctx.require("observations")

    assert _footprint(trace) == footprint
    weights = ctx.counters_on(ISA.X86_64).bp_instructions()
    rng = _discovery_rng(ctx)
    assert len(observations) == QUICK.discovery_runs
    for run, per_rank in enumerate(observations):
        assert len(per_rank) == 1
        _assert_observation(per_rank[0], trace, weights, rng.generator("run", run), run)


def test_rankify_stage_matches_per_run_expression():
    # The rank path of the same stage: one observation per rank, each
    # weighted by its own contexts and drawn from its own path.
    ctx = StageContext(
        DistributedWorkload(create("MCB"), 2), threads=RANK_THREADS, config=QUICK
    )
    trace = ctx.trace(ISA.X86_64)
    footprints = [_footprint(trace.rank_trace(r)) for r in range(trace.ranks)]

    ProfileStage().run(ctx)
    observations = ctx.require("observations")

    assert [_footprint(trace.rank_trace(r)) for r in range(trace.ranks)] == footprints
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
