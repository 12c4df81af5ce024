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

from repro.instrumentation.collector import DiscoveryObservation, Nonzeros

__all__ = ["SignatureMatrix", "build_signatures"]


def _normalise_scaled_into(matrix: np.ndarray, scale: float, out: np.ndarray) -> None:
    """Write ``row_normalise(matrix) * scale`` into ``out`` (no copies).

    Rows are L1-normalised (all-zero rows stay zero); the division and
    the balance scaling land directly in the caller's slice of a block
    of signature rows.
    """
    totals = matrix.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    np.divide(matrix, safe, out=out)
    np.multiply(out, scale, out=out)


#: The most rows of a :meth:`SignatureMatrix.project` block, and the
#: multiple every block boundary falls on.  OpenBLAS computes a block of
#: a thousand rows or more with the same GEMM kernel as the whole
#: product, a row unrolling of at most 64 wide at a time, so a block
#: that starts on a multiple of 64 rows gives each row the arithmetic
#: of the whole product, bit for bit.  A block of 1,666 rows does not
#: under ``OPENBLAS_CORETYPE=Prescott`` (its last two rows take a
#: narrower kernel), and blocks of up to 64 rows take the small-matrix
#: or GEMV paths, which round differently.
_BLOCK_ROWS = 2048
_ROW_ALIGN = 64


@dataclass(frozen=True)
class SignatureMatrix:
    """Per-barrier-point signature vectors plus clustering weights.

    The ``(n_bp, D_bbv + D_ldv)`` signature rows are only ever the input
    of one random projection, so they are never held whole: the matrix
    keeps each rank's jittered halves and :meth:`project` builds the
    rows a block at a time.

    Attributes
    ----------
    bbv / ldv:
        Each rank's BBV and LDV nonzeros, in rank order.
    weights:
        ``(n_bp,)`` instruction counts (Pin-exact).
    bbv_weight:
        Balance between the halves (see :func:`build_signatures`).
    """

    bbv: tuple[Nonzeros, ...]
    ldv: tuple[Nonzeros, ...]
    weights: np.ndarray
    bbv_weight: float

    @property
    def n_barrier_points(self) -> int:
        """Number of signature rows."""
        return int(self.weights.shape[0])

    @property
    def bbv_dims(self) -> int:
        """Columns of the BBV half, every rank's together."""
        return sum(half.shape[1] for half in self.bbv)

    @property
    def ldv_dims(self) -> int:
        """Columns of the LDV half, every rank's together."""
        return sum(half.shape[1] for half in self.ldv)

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_bp, D_bbv + D_ldv)`` of the signature rows."""
        return self.n_barrier_points, self.bbv_dims + self.ldv_dims

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Signature rows ``[start, stop)``, dense.

        Each rank's half is row-normalised and scaled into its
        rank-major slice of the block.
        """
        out = np.empty((stop - start, self.shape[1]))
        at = 0
        balance = ((self.bbv, self.bbv_weight), (self.ldv, 1.0 - self.bbv_weight))
        for halves, scale in balance:
            for half in halves:
                width = half.shape[1]
                _normalise_scaled_into(half.rows(start, stop), scale, out[:, at : at + width])
                at += width
        return out

    def project(self, matrix: np.ndarray) -> np.ndarray:
        """``rows(0, n_bp) @ matrix``, bit for bit, one block of rows at a time.

        Fewer than ``2 * _BLOCK_ROWS`` rows are one product; more split
        into ``ceil(n_bp / _BLOCK_ROWS)`` near-equal blocks whose bounds
        are multiples of ``_ROW_ALIGN`` (LULESH's 9,840 barrier points
        into four blocks of 1,984 rows and one of 1,904).
        """
        n_bp = self.n_barrier_points
        size = max(n_bp, 1)
        if n_bp >= 2 * _BLOCK_ROWS:
            blocks = -(-n_bp // _BLOCK_ROWS)
            size = -(-n_bp // (blocks * _ROW_ALIGN)) * _ROW_ALIGN
        out = np.empty((n_bp, matrix.shape[1]))
        for start in range(0, n_bp, size):
            stop = min(start + size, n_bp)
            out[start:stop] = self.rows(start, stop) @ matrix
        return out


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
    row-normalised into its slice (every rank contributes equal
    signature mass, so a work-imbalanced rank changes the *shape* of
    the row, not its norm), and the clustering weights are the
    per-rank instruction counts summed in rank order.  The matrix keeps
    every rank's nonzeros and builds its rows only when it is projected.

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
    >>> from repro.instrumentation.collector import DiscoveryObservation, Nonzeros
    >>> one = DiscoveryObservation(
    ...     bbv=Nonzeros.of(np.ones((3, 3))),
    ...     ldv=Nonzeros.of(np.ones((3, 1))),
    ...     weights=np.ones(3),
    ...     run_index=0,
    ... )
    >>> merged = build_signatures([one, one])
    >>> merged.shape, merged.bbv_dims, merged.ldv_dims
    ((3, 8), 6, 2)
    >>> merged.weights.tolist()
    [2.0, 2.0, 2.0]
    >>> np.round(merged.rows(0, 1), 3).tolist()
    [[0.167, 0.167, 0.167, 0.167, 0.167, 0.167, 0.5, 0.5]]
    """
    if not 0.0 <= bbv_weight <= 1.0:
        raise ValueError(f"bbv_weight must be in [0, 1], got {bbv_weight}")
    if not ranks:
        raise ValueError("at least one rank observation required")
    first = ranks[0]
    shapes = (first.bbv.shape, first.ldv.shape)
    bbv, ldv, weights = [first.bbv], [first.ldv], first.weights
    for rank in range(1, len(ranks)):
        observation = ranks[rank]
        if (observation.bbv.shape, observation.ldv.shape) != shapes:
            raise ValueError(
                f"rank {rank} observed BBV/LDV shapes "
                f"{(observation.bbv.shape, observation.ldv.shape)}, rank 0 "
                f"observed {shapes} — region boundaries misaligned"
            )
        bbv.append(observation.bbv)
        ldv.append(observation.ldv)
        weights = weights + observation.weights
    return SignatureMatrix(
        bbv=tuple(bbv), ldv=tuple(ldv), weights=weights, bbv_weight=bbv_weight
    )
