"""The SimPoint model-selection pipeline.

Project → sweep k → score with BIC → keep the smallest k whose score
reaches ``bic_threshold`` of the way from the worst to the best score.
The paper "follow[s] suggestions given in the original BarrierPoint
paper for the k-means parameters"; the defaults here mirror those:
maxK = 20 (Table III's selections never exceed 20), ~15 projected
dimensions, 0.9 BIC threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.bic import bic_score
from repro.clustering.kmeans import KMeansResult, kmeans
from repro.clustering.projection import random_projection

__all__ = ["SimPointOptions", "ClusteringChoice", "run_simpoint"]


@dataclass(frozen=True)
class SimPointOptions:
    """Knobs of the SimPoint-style clustering sweep.

    Attributes
    ----------
    max_k:
        Largest cluster count examined (BarrierPoint: 20).  A value of
        1 is accepted programmatically (ablations sweep it) but
        degenerates: the sweep examines only the one-cluster model and
        "selects" a single representative whose multiplier covers the
        whole region.  The CLI therefore rejects ``--max-k 1`` up
        front with an explicit error.
    projected_dims:
        Random-projection target dimensionality.
    bic_threshold:
        Fraction of the (min..max) BIC span a k must reach.
    n_init / max_iter:
        k-means restarts per k and Lloyd iteration cap.  The exact
        solver currently stops after one Lloyd update (see
        :func:`~repro.clustering.kmeans.kmeans`), so ``max_iter`` has no
        effect on it.
    k_stride:
        Optional thinning of the k grid above ``k_dense`` (sweeping all
        of 1..20 on 9,840 LULESH signatures × 10 discovery runs is
        wasteful; SimPoint itself supports sub-sampled k grids).
    k_dense:
        All k up to this value are always examined.
    algorithm:
        ``"exact"`` (Lloyd, the golden oracle) or ``"minibatch"``
        (:func:`repro.clustering.minibatch.minibatch_kmeans` — seeded,
        deterministic batch order; the full-scale default, where
        touching every signature per Lloyd iteration dominates the
        stage).
    batch_size:
        Mini-batch size when ``algorithm="minibatch"``.
    """

    max_k: int = 20
    projected_dims: int = 15
    bic_threshold: float = 0.9
    n_init: int = 2
    max_iter: int = 30
    k_stride: int = 2
    k_dense: int = 8
    algorithm: str = "exact"
    batch_size: int = 1024

    def __post_init__(self) -> None:
        if self.max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {self.max_k}")
        if not 0.0 < self.bic_threshold <= 1.0:
            raise ValueError(f"bic_threshold must be in (0, 1], got {self.bic_threshold}")
        if self.algorithm not in ("exact", "minibatch"):
            raise ValueError(
                f"algorithm must be 'exact' or 'minibatch', got {self.algorithm!r}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def k_grid(self, n_points: int) -> list[int]:
        """The cluster counts to examine for ``n_points`` signatures.

        Capped at half the signature count: clustering ten barrier
        points into ten "clusters" is degenerate, and SimPoint practice
        keeps maxK well below the interval count.  Note the cap floors
        at 1 — with ``max_k=1`` the grid is just ``[1]`` and the BIC
        threshold has nothing to discriminate (see the ``max_k``
        attribute note).
        """
        upper = min(self.max_k, max(n_points // 2, 1))
        grid = list(range(1, min(self.k_dense, upper) + 1))
        k = self.k_dense + self.k_stride
        while k <= upper:
            grid.append(k)
            k += self.k_stride
        if grid[-1] != upper:
            grid.append(upper)
        return grid


@dataclass(frozen=True)
class ClusteringChoice:
    """Outcome of one SimPoint sweep.

    Attributes
    ----------
    k:
        Chosen cluster count.
    result:
        The winning k-means state.
    projected:
        The projected signatures the clustering ran on (kept so the
        selection step can find the point closest to each centroid).
    bic_by_k:
        BIC score of the best clustering at each examined k.
    """

    k: int
    result: KMeansResult
    projected: np.ndarray
    bic_by_k: dict[int, float]


def run_simpoint(
    signatures: np.ndarray,
    weights: np.ndarray,
    gen: np.random.Generator,
    options: SimPointOptions | None = None,
) -> ClusteringChoice:
    """Cluster signature vectors the way SimPoint 3.2 does.

    Parameters
    ----------
    signatures:
        ``(n_bp, D)`` combined signature matrix.
    weights:
        ``(n_bp,)`` instruction weights.
    gen:
        Seeded generator (projection + k-means inits).
    options:
        Sweep parameters; defaults follow the paper.

    Returns
    -------
    ClusteringChoice
        Smallest k reaching the BIC threshold, with its clustering.
    """
    options = options or SimPointOptions()
    signatures = np.asarray(signatures, dtype=float)
    if signatures.ndim != 2 or signatures.shape[0] == 0:
        raise ValueError(f"signatures must be non-empty 2-D, got {signatures.shape}")

    projected = random_projection(signatures, options.projected_dims, gen)
    grid = options.k_grid(projected.shape[0])

    results: dict[int, KMeansResult] = {}
    bic_by_k: dict[int, float] = {}
    for k in grid:
        if options.algorithm == "minibatch":
            from repro.clustering.minibatch import minibatch_kmeans

            result = minibatch_kmeans(
                projected,
                k,
                gen,
                weights=weights,
                batch_size=options.batch_size,
                n_init=options.n_init,
            )
        else:
            result = kmeans(
                projected,
                k,
                gen,
                weights=weights,
                n_init=options.n_init,
                max_iter=options.max_iter,
            )
        results[k] = result
        bic_by_k[k] = bic_score(projected, result, weights)

    scores = np.array([bic_by_k[k] for k in grid])
    lo, hi = float(scores.min()), float(scores.max())
    if hi - lo <= 0:
        chosen = grid[0]
    else:
        cutoff = lo + options.bic_threshold * (hi - lo)
        chosen = next(k for k, s in zip(grid, scores, strict=True) if s >= cutoff)

    return ClusteringChoice(
        k=chosen, result=results[chosen], projected=projected, bic_by_k=bic_by_k
    )
