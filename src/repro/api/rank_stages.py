"""Rank-aware pipeline stages: per-rank discovery, cross-rank coalescing.

Distributed jobs replace the first two canonical stages with a pair
that operates *per rank* and then coalesces:

=============== ====================== =================================
stage           artifacts              role
=============== ====================== =================================
rankify         rank_observations,     per-rank instrumented executions
                rank_clean_signatures  (BBV/LDV collection per rank)
coalesce_ranks  signatures             rank-major signature coalescing
=============== ====================== =================================

``coalesce_ranks`` publishes the very same ``signatures`` artifact the
shared-memory ``signature`` stage does, so clustering, selection,
measurement, reconstruction and validation run **unchanged** downstream
— the rank axis is invisible past the coalescing point, exactly as the
paper's per-thread concatenation makes the thread axis invisible past
signature assembly.

Only ``rankify`` is cacheable, and its payload holds each rank's clean
signatures rather than every jittered run: a cache hit draws the runs
again from their seeded generators, and ``coalesce_ranks`` recomputes
the coalesced matrix from them.

Coalesced signature layout (documented, deterministic)
------------------------------------------------------

For R ranks whose per-rank signatures have ``d_bbv`` BBV and ``d_ldv``
LDV columns, the coalesced row of one barrier point is::

    [ bbv(rank 0) | bbv(rank 1) | ... | bbv(rank R-1) |
      ldv(rank 0) | ldv(rank 1) | ... | ldv(rank R-1) ]

i.e. **rank-major within each half**: all BBV halves first, then all
LDV halves, each ordered by rank.  Each per-rank half is row-normalised
before concatenation (every rank contributes equal signature mass, so a
work-imbalanced rank changes the *shape* of the row, not its norm), and
the clustering weights are the per-rank instruction counts summed over
ranks.  The per-rank interleaving jitter is seeded per
``(discovery run, rank)`` from the configuration's randomness tree, so
the layout is bit-reproducible from the seed alone.
"""

from __future__ import annotations

import numpy as np

from repro.api.context import StageContext
from repro.api.registry import register_stage
from repro.api.stage import Stage
from repro.core.signatures import SignatureMatrix, build_signatures
from repro.hw.pmu import INSTRUCTIONS
from repro.instrumentation.collector import CleanSignatures, DiscoveryObservation

__all__ = ["RankifyStage", "CoalesceRanksStage", "coalesce_signatures"]


def coalesce_signatures(per_rank: list[SignatureMatrix]) -> SignatureMatrix:
    """Coalesce per-rank signature matrices rank-major (see module doc).

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.signatures import SignatureMatrix
    >>> one = SignatureMatrix(
    ...     combined=np.ones((3, 4)), weights=np.ones(3),
    ...     bbv_dims=3, ldv_dims=1,
    ... )
    >>> merged = coalesce_signatures([one, one])
    >>> merged.combined.shape, merged.bbv_dims, merged.ldv_dims
    ((3, 8), 6, 2)
    """
    if not per_rank:
        raise ValueError("at least one rank signature required")
    n_bp = per_rank[0].n_barrier_points
    for rank, sig in enumerate(per_rank):
        if sig.n_barrier_points != n_bp:
            raise ValueError(
                f"rank {rank} observed {sig.n_barrier_points} barrier points, "
                f"rank 0 observed {n_bp} — region boundaries misaligned"
            )
    bbv_dims = sum(sig.bbv_dims for sig in per_rank)
    ldv_dims = sum(sig.ldv_dims for sig in per_rank)
    # One output buffer: each rank's halves are copied into their slices.
    combined = np.empty(
        (n_bp, bbv_dims + ldv_dims),
        dtype=np.result_type(*(sig.combined for sig in per_rank)),
    )
    bbv_at, ldv_at = 0, bbv_dims
    for sig in per_rank:
        combined[:, bbv_at : bbv_at + sig.bbv_dims] = sig.combined[:, : sig.bbv_dims]
        combined[:, ldv_at : ldv_at + sig.ldv_dims] = sig.combined[:, sig.bbv_dims :]
        bbv_at += sig.bbv_dims
        ldv_at += sig.ldv_dims
    return SignatureMatrix(
        combined=combined,
        weights=np.sum([sig.weights for sig in per_rank], axis=0),
        bbv_dims=int(bbv_dims),
        ldv_dims=int(ldv_dims),
    )


@register_stage
class RankifyStage(Stage):
    """Step 1 (distributed): instrument each rank's execution.

    Per rank: collect the rank's BBV/LDV from its own trace once and
    weight them by the rank's exact instruction counts; per discovery
    run, perturb them with interleaving jitter seeded per ``(run,
    rank)`` — R Pintool invocations per run, one per MPI process.  The
    payload is each rank's clean signatures plus the run count;
    decoding draws every ``(run, rank)`` observation again from the
    same generators, bit for bit, without executing the trace.

    Requires a workload wrapped in
    :class:`~repro.workloads.distributed.DistributedWorkload`; the
    assembled graph is what a rank-axis :class:`repro.api.Sweep`
    executes::

        Sweep("miniFE", RankAxis(), (1, 2, 4)).run()
    """

    name = "rankify"
    inputs = ()
    outputs = ("rank_observations", "rank_clean_signatures")
    description = "instrument every rank's execution (per-rank BBV/LDV)"
    cacheable = True

    def __init__(self, discovery_runs: int | None = None) -> None:
        if discovery_runs is not None and discovery_runs < 1:
            raise ValueError(f"discovery_runs must be >= 1, got {discovery_runs}")
        self.discovery_runs = discovery_runs

    def effective_runs(self, ctx: StageContext) -> int:
        """Constructor override, else the shared configuration."""
        if self.discovery_runs is not None:
            return self.discovery_runs
        return ctx.config.discovery_runs

    @staticmethod
    def _ranks(ctx: StageContext) -> int:
        return int(getattr(ctx.app, "ranks", 1))

    @staticmethod
    def _observe(
        ctx: StageContext, per_rank: list[CleanSignatures], runs: int
    ) -> list[list[DiscoveryObservation]]:
        """Run-major ``[run][rank]`` observations, one generator per pair."""
        rng = ctx.discovery_rng()
        by_rank = [
            [
                clean.observe(rng.generator("run", run, "rank", rank), run)
                for run in range(runs)
            ]
            for rank, clean in enumerate(per_rank)
        ]
        return [list(per_run) for per_run in zip(*by_rank, strict=True)]

    def run(self, ctx: StageContext) -> StageContext:
        trace = ctx.trace(ctx.discovery_isa)
        if not hasattr(trace, "rank_traces"):
            raise TypeError(
                f"rankify needs a distributed workload; wrap {ctx.app.name!r} "
                "in repro.workloads.distributed.DistributedWorkload"
            )
        counters = ctx.counters_on(ctx.discovery_isa)
        per_rank = [
            CleanSignatures.of(
                trace.rank_trace(rank),
                counters.values[:, trace.rank_columns(rank), INSTRUCTIONS].sum(axis=1),
            )
            for rank in range(trace.ranks)
        ]
        ctx.put("rank_clean_signatures", per_rank)
        ctx.put(
            "rank_observations", self._observe(ctx, per_rank, self.effective_runs(ctx))
        )
        return ctx

    def cache_key(self, ctx: StageContext) -> dict:
        return {
            "discovery_runs": self.effective_runs(ctx),
            "discovery_isa": ctx.discovery_isa.value,
            "ranks": self._ranks(ctx),
            # The communication schedule shapes the trace this stage
            # (and, through the digest chain, everything downstream)
            # observes; a job with a different collective cadence must
            # never share cache entries.
            "phases": getattr(ctx.app, "phases", None),
        }

    def encode(self, ctx: StageContext) -> dict:
        return {
            # Each rank's dataclass fields (bbv, ldv, weights, sigma), uncopied.
            "clean": [vars(clean) for clean in ctx.require("rank_clean_signatures")],
            "runs": len(ctx.require("rank_observations")),
        }

    def decode(self, payload: dict, ctx: StageContext) -> None:
        per_rank = [CleanSignatures(**row) for row in payload["clean"]]
        ctx.put("rank_clean_signatures", per_rank)
        ctx.put("rank_observations", self._observe(ctx, per_rank, int(payload["runs"])))


@register_stage
class CoalesceRanksStage(Stage):
    """Step 2 (distributed): coalesce per-rank signatures rank-major.

    Builds each rank's signature matrix (row-normalised BBV ⊕ LDV, the
    shared-memory Step 2 per rank) and concatenates them in the
    documented rank-major layout, summing the clustering weights over
    ranks.  Publishes the standard ``signatures`` artifact, so every
    downstream stage is rank-agnostic.  Like ``signature``, it is not
    cacheable: it recomputes from the ``rankify`` observations.
    """

    name = "coalesce_ranks"
    inputs = ("rank_observations",)
    outputs = ("signatures",)
    description = "coalesce per-rank signatures rank-major into one matrix"

    def __init__(self, bbv_weight: float | None = None) -> None:
        self.bbv_weight = bbv_weight

    def effective_weight(self, ctx: StageContext) -> float:
        """Constructor override, else the shared configuration."""
        return self.bbv_weight if self.bbv_weight is not None else ctx.config.bbv_weight

    def run(self, ctx: StageContext) -> StageContext:
        weight = self.effective_weight(ctx)
        ctx.put(
            "signatures",
            [
                coalesce_signatures(
                    [build_signatures(obs, weight) for obs in per_rank]
                )
                for per_rank in ctx.require("rank_observations")
            ],
        )
        return ctx

    def cache_key(self, ctx: StageContext) -> dict:
        return {"bbv_weight": self.effective_weight(ctx)}
