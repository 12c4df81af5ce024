"""Signature Vectors: BBV ⊕ LDV.

Step 2 of the workflow "combine[s] the BBV and LDV into Signature
Vectors (SV)".  Each half is row-normalised (a signature describes *how*
a barrier point behaves; its *size* enters separately as the clustering
weight), then concatenated with a configurable balance.  The default
weighs both halves equally; the signature-composition ablation
(``benchmarks/bench_ablation_signatures.py``) sweeps the balance to
BBV-only and LDV-only.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.instrumentation.collector import DiscoveryObservation

__all__ = ["SignatureMatrix", "build_signatures"]


def _normalise_scaled_into(matrix: np.ndarray, scale: float, out: np.ndarray) -> None:
    """Write ``row_normalise(matrix) * scale`` into ``out`` (no copies).

    Rows are L1-normalised (all-zero rows stay zero); the division and
    the balance scaling land directly in the caller's slice of the
    combined signature buffer, so assembling a signature matrix costs
    one allocation instead of four.
    """
    totals = matrix.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    np.divide(matrix, safe, out=out)
    np.multiply(out, scale, out=out)


@dataclass(frozen=True)
class SignatureMatrix:
    """Per-barrier-point signature vectors plus clustering weights.

    Attributes
    ----------
    combined:
        ``(n_bp, D_bbv + D_ldv)`` signature rows.
    weights:
        ``(n_bp,)`` instruction counts (Pin-exact).
    bbv_dims / ldv_dims:
        Split point of the two halves, for introspection and ablations.
    """

    combined: np.ndarray
    weights: np.ndarray
    bbv_dims: int
    ldv_dims: int

    @property
    def n_barrier_points(self) -> int:
        """Number of signature rows."""
        return int(self.combined.shape[0])


def build_signatures(
    ranks: Sequence[DiscoveryObservation], bbv_weight: float = 0.5
) -> SignatureMatrix:
    """Combine one discovery run's per-rank BBV and LDV into signature vectors.

    A shared-memory run is a sequence of one observation, whose row is
    ``[bbv | ldv]``.  For R ranks whose observations have ``d_bbv`` BBV
    and ``d_ldv`` LDV columns, the row of one barrier point is::

        [ bbv(rank 0) | bbv(rank 1) | ... | bbv(rank R-1) |
          ldv(rank 0) | ldv(rank 1) | ... | ldv(rank R-1) ]

    i.e. **rank-major within each half**: all BBV halves first, then
    all LDV halves, each ordered by rank.  Each per-rank half is
    row-normalised into its slice of the one output buffer (every rank
    contributes equal signature mass, so a work-imbalanced rank changes
    the *shape* of the row, not its norm), and the clustering weights
    are the per-rank instruction counts summed in rank order.  Ranks
    are read one at a time, so one rank's observation is alive next to
    the output.

    Parameters
    ----------
    ranks:
        Pintool output of this run, one observation per rank.
    bbv_weight:
        Balance between the halves: 1.0 → BBV only, 0.0 → LDV only,
        0.5 (default) → the paper's combination.

    Example
    -------
    >>> import numpy as np
    >>> from repro.instrumentation.collector import DiscoveryObservation
    >>> one = DiscoveryObservation(
    ...     bbv=np.ones((3, 3)), ldv=np.ones((3, 1)), weights=np.ones(3), run_index=0
    ... )
    >>> merged = build_signatures([one, one])
    >>> merged.combined.shape, merged.bbv_dims, merged.ldv_dims
    ((3, 8), 6, 2)
    >>> merged.weights.tolist()
    [2.0, 2.0, 2.0]
    """
    if not 0.0 <= bbv_weight <= 1.0:
        raise ValueError(f"bbv_weight must be in [0, 1], got {bbv_weight}")
    if not ranks:
        raise ValueError("at least one rank observation required")
    observation = ranks[0]
    n_bp, bbv_dims = observation.bbv.shape
    ldv_dims = observation.ldv.shape[1]
    n_ranks = len(ranks)
    combined = np.empty((n_bp, n_ranks * (bbv_dims + ldv_dims)), dtype=float)
    weights = observation.weights
    for rank in range(n_ranks):
        if rank:
            # Read only now: the previous rank was deleted below.
            observation = ranks[rank]
            shapes = (observation.bbv.shape, observation.ldv.shape)
            if shapes != ((n_bp, bbv_dims), (n_bp, ldv_dims)):
                raise ValueError(
                    f"rank {rank} observed BBV/LDV shapes {shapes}, rank 0 "
                    f"observed {((n_bp, bbv_dims), (n_bp, ldv_dims))} — region "
                    "boundaries misaligned"
                )
            weights = weights + observation.weights
        bbv_at = rank * bbv_dims
        ldv_at = n_ranks * bbv_dims + rank * ldv_dims
        _normalise_scaled_into(
            observation.bbv, bbv_weight, combined[:, bbv_at : bbv_at + bbv_dims]
        )
        _normalise_scaled_into(
            observation.ldv, 1.0 - bbv_weight, combined[:, ldv_at : ldv_at + ldv_dims]
        )
        del observation
    return SignatureMatrix(
        combined=combined,
        weights=weights,
        bbv_dims=n_ranks * bbv_dims,
        ldv_dims=n_ranks * ldv_dims,
    )
