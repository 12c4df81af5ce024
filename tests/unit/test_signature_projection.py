"""``SignatureMatrix.project`` is the dense product it replaces, bit for bit.

The reference builds the ``(n_bp, D)`` matrix whole, as signing a run
used to: one buffer, each rank's halves row-normalised into their
rank-major slices, then one product with the projection.  The matrix
under test builds a block of rows at a time, so it must equal that
product to the bit while never holding the whole matrix.  Run it under
``OPENBLAS_CORETYPE=Prescott`` as well: a block bound off a multiple
of 64 rows passes on the native core and fails there.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.signatures import build_signatures
from repro.instrumentation.collector import DiscoveryObservation, Nonzeros

#: Per-rank (BBV, LDV) widths: LULESH's 8-thread job, and an 8-rank
#: job of 2-thread ranks (704 columns together).
WIDTHS = {1: (308, 44), 8: (44, 44)}


def _half(gen, n_bp, width, density):
    half = np.where(gen.random((n_bp, width)) < density, gen.random((n_bp, width)), 0.0)
    half[gen.random(n_bp) < 0.01] = 0.0  # a few all-zero rows
    return half


def _observations(n_bp, ranks, seed=0):
    gen = np.random.default_rng(seed)
    bbv_width, ldv_width = WIDTHS[ranks]
    halves = [
        (_half(gen, n_bp, bbv_width, 0.06), _half(gen, n_bp, ldv_width, 0.12))
        for _ in range(ranks)
    ]
    observations = [
        DiscoveryObservation(
            bbv=Nonzeros.of(bbv), ldv=Nonzeros.of(ldv), weights=gen.random(n_bp), run_index=0
        )
        for bbv, ldv in halves
    ]
    return halves, observations


def _dense_reference(halves, bbv_weight):
    """The whole signature matrix, built as one buffer."""
    n_bp = halves[0][0].shape[0]
    bbv_width, ldv_width = halves[0][0].shape[1], halves[0][1].shape[1]
    ranks = len(halves)
    combined = np.empty((n_bp, ranks * (bbv_width + ldv_width)))
    for rank, (bbv, ldv) in enumerate(halves):
        bbv_at = rank * bbv_width
        ldv_at = ranks * bbv_width + rank * ldv_width
        for half, scale, at in ((bbv, bbv_weight, bbv_at), (ldv, 1.0 - bbv_weight, ldv_at)):
            out = combined[:, at : at + half.shape[1]]
            totals = half.sum(axis=1, keepdims=True)
            np.divide(half, np.where(totals > 0, totals, 1.0), out=out)
            np.multiply(out, scale, out=out)
    return combined


def _projection(width, seed=1):
    return np.random.default_rng(seed).standard_normal((width, 15)) / np.sqrt(15)


@pytest.mark.parametrize("ranks", [1, 8])
@pytest.mark.parametrize("n_bp", [1_000, 4_096, 5_000, 6_151, 9_840])
def test_project_is_the_dense_product(n_bp, ranks):
    halves, observations = _observations(n_bp, ranks)
    signatures = build_signatures(observations, bbv_weight=0.5)
    dense = _dense_reference(halves, 0.5)
    matrix = _projection(dense.shape[1])

    assert signatures.shape == dense.shape
    assert signatures.rows(0, n_bp).tobytes() == dense.tobytes()
    assert signatures.project(matrix).tobytes() == (dense @ matrix).tobytes()


def test_projecting_lulesh_ranks_holds_a_quarter_of_the_matrix():
    _, observations = _observations(9_840, 8)
    signatures = build_signatures(observations, bbv_weight=0.5)
    matrix = _projection(signatures.shape[1])
    dense_bytes = signatures.shape[0] * signatures.shape[1] * 8

    tracemalloc.start()
    try:
        signatures.project(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert signatures.shape == (9_840, 704)
    assert peak < dense_bytes / 4
