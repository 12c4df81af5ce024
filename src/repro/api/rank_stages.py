"""Rank-aware pipeline stages: per-rank discovery, cross-rank coalescing.

Distributed jobs replace the first two canonical stages with a pair
that operates *per rank* and then coalesces:

=============== ================= ======================================
stage           artifacts         role
=============== ================= ======================================
rankify         rank_observations per-rank instrumented executions
                                  (BBV/LDV collection per rank)
coalesce_ranks  signatures        rank-major signature coalescing
=============== ================= ======================================

``coalesce_ranks`` publishes the very same ``signatures`` artifact the
shared-memory ``signature`` stage does, so clustering, selection,
measurement, reconstruction and validation run **unchanged** downstream
— the rank axis is invisible past the coalescing point, exactly as the
paper's per-thread concatenation makes the thread axis invisible past
signature assembly.

Both artifacts are :class:`~repro.api.context.RunSequence` objects
built when read: run r of ``rank_observations`` is itself a sequence
over ranks, and run r of ``signatures`` draws and signs one rank at a
time and coalesces them.  Neither stage is cacheable: a stored run
reads ``select`` and ``measure`` only, and a changed clustering knob
runs the pair again.

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

from repro.api.context import RunSequence, StageContext
from repro.api.registry import register_stage
from repro.api.stage import Stage
from repro.core.signatures import SignatureMatrix, build_signatures
from repro.hw.pmu import INSTRUCTIONS
from repro.instrumentation.collector import CleanSignatures

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
    rank)`` — R Pintool invocations per run, one per MPI process.
    ``rank_observations`` is a run sequence of rank sequences: reading
    ``[run][rank]`` draws that one observation.

    Requires a workload wrapped in
    :class:`~repro.workloads.distributed.DistributedWorkload`; the
    assembled graph is what a rank-axis :class:`repro.api.Sweep`
    executes::

        Sweep("miniFE", RankAxis(), (1, 2, 4)).run()
    """

    name = "rankify"
    inputs = ()
    outputs = ("rank_observations",)
    description = "instrument every rank's execution (per-rank BBV/LDV)"

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
        rng = ctx.discovery_rng()
        # Run-major ``[run][rank]`` observations, one generator per pair.
        ctx.put(
            "rank_observations",
            RunSequence(
                self.effective_runs(ctx),
                lambda run: RunSequence(
                    len(per_rank),
                    lambda rank: per_rank[rank].observe(
                        rng.generator("run", run, "rank", rank), run
                    ),
                ),
            ),
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


@register_stage
class CoalesceRanksStage(Stage):
    """Step 2 (distributed): coalesce per-rank signatures rank-major.

    Builds each rank's signature matrix (row-normalised BBV ⊕ LDV, the
    shared-memory Step 2 per rank) and concatenates them in the
    documented rank-major layout, summing the clustering weights over
    ranks.  Publishes the standard ``signatures`` artifact, a run
    sequence, so every downstream stage is rank-agnostic; reading run r
    draws and signs its ranks one at a time.  Like ``signature``, it
    recomputes from the ``rankify`` observations whenever it is read.
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
        observations = ctx.require("rank_observations")

        def coalesced(run: int) -> SignatureMatrix:
            per_rank = observations[run]
            # Indexed per rank: each observation dies once it is signed.
            return coalesce_signatures(
                [build_signatures(per_rank[rank], weight) for rank in range(len(per_rank))]
            )

        ctx.put("signatures", RunSequence(len(observations), coalesced))
        return ctx

    def cache_key(self, ctx: StageContext) -> dict:
        return {"bbv_weight": self.effective_weight(ctx)}
