"""Seeded Gaussian random projection.

SimPoint projects high-dimensional basic-block vectors down to ~15
dimensions before clustering; the Johnson-Lindenstrauss lemma guarantees
pairwise distances survive with small distortion, and the projection
makes the k-means sweep cheap regardless of how many static blocks an
application has.
"""

from __future__ import annotations

import numpy as np

__all__ = ["random_projection"]


def random_projection(data, dims: int, gen: np.random.Generator) -> np.ndarray:
    """Project rows of ``data`` to ``dims`` dimensions.

    Parameters
    ----------
    data:
        ``(n, D)`` signatures: an array, or a
        :class:`~repro.core.signatures.SignatureMatrix`, whose rows are
        built and multiplied a block at a time
        (:meth:`~repro.core.signatures.SignatureMatrix.project`).
    dims:
        Target dimensionality (SimPoint's default region is ~15).  If
        ``D <= dims`` the rows are returned unprojected (already small).
    gen:
        Seeded generator; different discovery runs use different
        projections, one source of the run-to-run selection variation.

    Returns
    -------
    numpy.ndarray
        ``(n, dims)`` projected matrix.
    """
    dense = not hasattr(data, "project")
    if dense:
        data = np.asarray(data, dtype=float)
    if len(data.shape) != 2:
        raise ValueError(f"data must be 2-D, got shape {data.shape}")
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    n, n_features = data.shape
    if n_features <= dims:
        return data.copy() if dense else data.rows(0, n)
    matrix = gen.standard_normal((n_features, dims)) / np.sqrt(dims)
    return data @ matrix if dense else data.project(matrix)
