"""Weighted k-means with k-means++ seeding.

Barrier points differ wildly in size (miniFE's dominant matvec region
versus its tiny dot products), so the clustering weighs each signature
by the instructions its barrier point executes — a small, fast region
should not pull a centroid as hard as the region that dominates runtime.

Every kernel here reproduces, bit for bit, the straightforward
formulation kept under ``tests/`` as the reference: each rewrite below
performs the same floating-point operations in the same order and only
removes temporaries, masks and repeated work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["KMeansResult", "kmeans"]


@dataclass(frozen=True)
class KMeansResult:
    """Converged k-means state.

    Attributes
    ----------
    labels:
        ``(n,)`` cluster index per point.
    centers:
        ``(k, d)`` centroids.
    inertia:
        Weighted sum of squared distances to assigned centroids.
    iterations:
        Lloyd iterations performed.
    """

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    iterations: int

    @property
    def k(self) -> int:
        """Number of clusters."""
        return int(self.centers.shape[0])


def _cdf(p: np.ndarray) -> np.ndarray:
    """The normalised running sum ``Generator.choice(n, p=p)`` searches."""
    cdf = p.cumsum()
    if not math.isfinite(cdf[-1]):
        raise ValueError("k-means++ probabilities contain NaN or infinity")
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, gen: np.random.Generator) -> int:
    """``gen.choice(n, p=p)`` for the ``p`` behind ``cdf``.

    The same inverse-CDF draw ``choice`` makes — one ``gen.random()``,
    so the index and the generator state after the call match — without
    re-validating a ``p`` that is valid by construction.
    """
    return int(cdf.searchsorted(gen.random(), "right"))


def _squared_distances(
    data: np.ndarray, centers: np.ndarray, data_sq: np.ndarray | None = None
) -> np.ndarray:
    """``(n, k)`` squared Euclidean distances (BLAS-friendly form).

    ``data_sq`` memoises ``(data**2).sum(axis=1)``: the k-means++ loop
    and every Lloyd iteration call this with the *same* points, and
    reusing the identical computed array is bit-identical to
    recomputing it while skipping the dominant O(n·d) term.

    The one matrix product is finished in place: scaling it by -2 is
    exact, and ``(-2x) + a`` is IEEE-identical to ``a - 2x``, so the
    result matches ``a - (2·data)·centersᵀ + c`` without its ``(n, k)``
    temporaries.
    """
    if data_sq is None:
        data_sq = (data**2).sum(axis=1)
    d2 = data @ centers.T
    d2 *= -2.0
    d2 += data_sq[:, None]
    d2 += (centers**2).sum(axis=1)
    return np.maximum(d2, 0.0, out=d2)


def _kmeanspp_init(
    data: np.ndarray,
    weights: np.ndarray,
    k: int,
    gen: np.random.Generator,
    data_sq: np.ndarray | None = None,
    first_cdf: np.ndarray | None = None,
) -> np.ndarray:
    """k-means++ seeding with probability ∝ weight × squared distance.

    ``first_cdf`` memoises the first draw's ``_cdf(weights / weights.sum())``,
    which is the same for every restart on the same points.  Each
    distance column stays its own single-column product: batching
    columns turns OpenBLAS's gemv into a gemm, whose different
    summation order changes the distance bits.
    """
    n = data.shape[0]
    if data_sq is None:
        data_sq = (data**2).sum(axis=1)
    if first_cdf is None:
        first_cdf = _cdf(weights / weights.sum())
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[_draw(first_cdf, gen)]
    closest = _squared_distances(data, centers[:1], data_sq)[:, 0]
    for j in range(1, k):
        scores = weights * closest
        total = scores.sum()
        if total <= 0:  # all points coincide with chosen centers
            idx = int(gen.integers(0, n))
        else:
            scores /= total
            idx = _draw(_cdf(scores), gen)
        centers[j] = data[idx]
        np.minimum(
            closest,
            _squared_distances(data, centers[j : j + 1], data_sq)[:, 0],
            out=closest,
        )
    return centers


def kmeans(
    data: np.ndarray,
    k: int,
    gen: np.random.Generator,
    weights: np.ndarray | None = None,
    n_init: int = 3,
    max_iter: int = 40,
    tol: float = 1e-7,
) -> KMeansResult:
    """Cluster ``data`` into ``k`` groups, best of ``n_init`` restarts.

    Parameters
    ----------
    data:
        ``(n, d)`` points (already projected).
    k:
        Cluster count; must not exceed ``n``.
    gen:
        Seeded generator for initialisation.
    weights:
        Optional ``(n,)`` non-negative point weights (instruction
        counts); defaults to uniform.
    n_init / max_iter / tol:
        Restart count, Lloyd iteration cap, and relative inertia
        improvement below which iteration stops.

    Notes
    -----
    The exact solver currently stops after one Lloyd update: its stop
    test starts from ``prev_inertia = inf``, and
    ``inf - inertia <= tol * inf`` holds for any finite inertia.  Every
    restart therefore reports ``iterations == 1`` (for
    ``max_iter >= 1``), and ``max_iter`` and ``tol`` have no effect on
    it.  Fixing this changes the clusterings every table is built from,
    so it awaits a deliberate, versioned change of the numbers.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,) or np.any(weights < 0) or weights.sum() == 0:
            raise ValueError("weights must be (n,) non-negative with positive sum")

    # Every restart shares the squared norms and the first draw's CDF.
    data_sq = (data**2).sum(axis=1)
    first_cdf = _cdf(weights / weights.sum())
    best: KMeansResult | None = None
    for _ in range(max(n_init, 1)):
        result = _lloyd(data, weights, k, gen, max_iter, tol, data_sq, first_cdf)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


def _update_centers(
    data: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    nearest: np.ndarray,
    centers: np.ndarray,
) -> None:
    """Move each center to its cluster's weighted mean, in place.

    A stable sort by label lays every cluster out as one contiguous
    slice in the original point order, so each slice sums exactly the
    elements a per-cluster mask would select, in the same order: the
    axis-0 sum runs row by row and the 1-D weight sum's pairwise
    blocking depends only on the element sequence.  (``np.add.reduceat``
    and a weighted ``np.bincount`` group the additions differently and
    do not reproduce it.)  An empty or weightless cluster is reseeded
    at the point farthest from its nearest center.
    """
    k = centers.shape[0]
    # A stable order is unique, so sorting the labels as the narrowest
    # unsigned type (a radix sort) yields the same permutation, faster.
    order = np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable")
    bounds = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=k), out=bounds[1:])
    sorted_weights = weights[order]
    weighted = data[order]
    weighted *= sorted_weights[:, None]
    for j in range(k):
        lo, hi = bounds[j], bounds[j + 1]
        cluster_weight = sorted_weights[lo:hi].sum()
        if cluster_weight > 0:
            centers[j] = weighted[lo:hi].sum(axis=0) / cluster_weight
        else:
            centers[j] = data[int(nearest.argmax())]


def _lloyd(
    data: np.ndarray,
    weights: np.ndarray,
    k: int,
    gen: np.random.Generator,
    max_iter: int,
    tol: float,
    data_sq: np.ndarray,
    first_cdf: np.ndarray,
) -> KMeansResult:
    centers = _kmeanspp_init(data, weights, k, gen, data_sq, first_cdf)
    rows = np.arange(data.shape[0])
    prev_inertia = np.inf
    iteration = 0
    for iteration in range(1, max_iter + 1):  # noqa: B007  # read after the loop
        d2 = _squared_distances(data, centers, data_sq)
        labels = d2.argmin(axis=1)
        nearest = d2[rows, labels]
        inertia = float((weights * nearest).sum())
        _update_centers(data, weights, labels, nearest, centers)

        if prev_inertia - inertia <= tol * max(prev_inertia, 1e-30):
            prev_inertia = inertia
            break
        prev_inertia = inertia

    d2 = _squared_distances(data, centers, data_sq)
    labels = d2.argmin(axis=1)
    inertia = float((weights * d2[rows, labels]).sum())
    return KMeansResult(labels=labels, centers=centers, inertia=inertia, iterations=iteration)
