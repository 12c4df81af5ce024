"""Reference k-means kernels: the straightforward formulation.

These are the original, unoptimised kernels of
:mod:`repro.clustering.kmeans`, kept verbatim.  The production kernels
must reproduce them bit for bit; ``test_kmeans_reference.py`` swaps
these in through :func:`reference_kernels` and compares.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

from repro.clustering.kmeans import KMeansResult

__all__ = ["reference_kernels"]


def _squared_distances(
    data: np.ndarray, centers: np.ndarray, data_sq: np.ndarray | None = None
) -> np.ndarray:
    """``(n, k)`` squared Euclidean distances (BLAS-friendly form).

    ``data_sq`` memoises ``(data**2).sum(axis=1)``: the k-means++ loop
    and every Lloyd iteration call this with the *same* points, and
    reusing the identical computed array is bit-identical to
    recomputing it while skipping the dominant O(n·d) term.
    """
    if data_sq is None:
        data_sq = (data**2).sum(axis=1)
    d2 = (
        data_sq[:, None]
        - 2.0 * data @ centers.T
        + (centers**2).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeanspp_init(
    data: np.ndarray,
    weights: np.ndarray,
    k: int,
    gen: np.random.Generator,
    data_sq: np.ndarray | None = None,
) -> np.ndarray:
    """k-means++ seeding with probability ∝ weight × squared distance."""
    n = data.shape[0]
    if data_sq is None:
        data_sq = (data**2).sum(axis=1)
    centers = np.empty((k, data.shape[1]))
    first = gen.choice(n, p=weights / weights.sum())
    centers[0] = data[first]
    closest = _squared_distances(data, centers[:1], data_sq)[:, 0]
    for j in range(1, k):
        scores = weights * closest
        total = scores.sum()
        if total <= 0:  # all points coincide with chosen centers
            idx = int(gen.integers(0, n))
        else:
            idx = int(gen.choice(n, p=scores / total))
        centers[j] = data[idx]
        closest = np.minimum(
            closest, _squared_distances(data, centers[j : j + 1], data_sq)[:, 0]
        )
    return centers


def _lloyd(
    data: np.ndarray,
    weights: np.ndarray,
    k: int,
    gen: np.random.Generator,
    max_iter: int,
    tol: float,
) -> KMeansResult:
    data_sq = (data**2).sum(axis=1)
    centers = _kmeanspp_init(data, weights, k, gen, data_sq)
    labels = np.zeros(data.shape[0], dtype=np.int64)
    prev_inertia = np.inf
    iteration = 0
    for iteration in range(1, max_iter + 1):  # noqa: B007  # read after the loop
        d2 = _squared_distances(data, centers, data_sq)
        labels = d2.argmin(axis=1)
        inertia = float((weights * d2[np.arange(data.shape[0]), labels]).sum())

        for j in range(k):
            mask = labels == j
            cluster_weight = weights[mask].sum()
            if cluster_weight > 0:
                centers[j] = (weights[mask, None] * data[mask]).sum(axis=0) / cluster_weight
            else:
                # Reseed an empty cluster at the point farthest from its center.
                farthest = int(d2.min(axis=1).argmax())
                centers[j] = data[farthest]

        if prev_inertia - inertia <= tol * max(prev_inertia, 1e-30):
            prev_inertia = inertia
            break
        prev_inertia = inertia

    d2 = _squared_distances(data, centers, data_sq)
    labels = d2.argmin(axis=1)
    inertia = float((weights * d2[np.arange(data.shape[0]), labels]).sum())
    return KMeansResult(labels=labels, centers=centers, inertia=inertia, iterations=iteration)


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Run :func:`~repro.clustering.kmeans.kmeans`,
    :func:`~repro.clustering.minibatch.minibatch_kmeans` and
    :func:`~repro.clustering.simpoint.run_simpoint` on the reference
    kernels above instead of the production ones."""

    def lloyd(data, weights, k, gen, max_iter, tol, *_memoised):
        # The reference recomputes what production kmeans() hands in.
        return _lloyd(data, weights, k, gen, max_iter, tol)

    targets = (
        ("repro.clustering.kmeans._lloyd", lloyd),
        ("repro.clustering.minibatch._kmeanspp_init", _kmeanspp_init),
        ("repro.clustering.minibatch._squared_distances", _squared_distances),
    )
    with ExitStack() as stack:
        for target, replacement in targets:
            stack.enter_context(mock.patch(target, replacement))
        yield
