"""The production k-means kernels reproduce the reference kernels exactly.

Every public entry point that runs the kernels — :func:`kmeans`,
:func:`run_simpoint` and :func:`minibatch_kmeans` — is run twice on the
same input and seed: once as shipped, once with the reference kernels
of ``kmeans_reference.py`` swapped in.  Labels, centers, inertia,
iteration counts, BIC scores and the generator state after the call
must all be equal, not merely close.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from kmeans_reference import _kmeanspp_init, _squared_distances, reference_kernels

from repro.clustering.kmeans import KMeansResult, _cdf, _draw, kmeans
from repro.clustering.minibatch import minibatch_kmeans
from repro.clustering.simpoint import SimPointOptions, run_simpoint

pytestmark = pytest.mark.properties

WEIGHT_MODES = ("none", "uniform", "random", "with_zeros", "counts")


def _weights(mode: str, n: int, gen: np.random.Generator) -> np.ndarray | None:
    if mode == "none":
        return None
    if mode == "uniform":
        return np.ones(n)
    if mode == "random":
        return gen.random(n) + 0.01
    if mode == "with_zeros":
        weights = gen.random(n)
        weights[gen.random(n) < 0.4] = 0.0
        weights[gen.integers(0, n)] = 1.0  # keep the total positive
        return weights
    return gen.integers(1, 10**6, size=n).astype(float)


@st.composite
def clustered_points(draw, max_n: int = 60, max_d: int = 6):
    """Gaussian blobs, optionally with duplicated rows, plus weights."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    blobs = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    means = gen.normal(0.0, scale, size=(blobs, d))
    data = means[gen.integers(0, blobs, size=n)] + gen.normal(0.0, scale / 10, (n, d))
    if draw(st.booleans()):  # duplicated rows
        data = data[gen.integers(0, max(n // 2, 1), size=n)]
    weights = _weights(draw(st.sampled_from(WEIGHT_MODES)), n, gen)
    return data, weights, seed


def _run(fn, seed: int):
    """``(outcome, generator state)``; a raised error is the outcome."""
    gen = np.random.default_rng(seed)
    try:
        outcome = fn(gen)
    except ValueError as err:
        outcome = type(err)
    return outcome, gen.bit_generator.state


def _assert_same_kmeans(got: KMeansResult, want: KMeansResult) -> None:
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.centers, want.centers)
    assert got.inertia == want.inertia
    assert got.iterations == want.iterations


def _assert_matches_reference(fn, seed: int) -> None:
    got, got_state = _run(fn, seed)
    with reference_kernels():
        want, want_state = _run(fn, seed)
    assert got_state == want_state
    if isinstance(want, type):
        assert got is want
    elif isinstance(want, KMeansResult):
        _assert_same_kmeans(got, want)
    else:
        assert got.k == want.k
        _assert_same_kmeans(got.result, want.result)
        assert np.array_equal(got.projected, want.projected)
        assert got.bic_by_k == want.bic_by_k


@given(clustered_points(), st.integers(1, 8), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_kmeans_matches_reference(points, k, n_init):
    data, weights, seed = points
    k = min(k, data.shape[0])
    _assert_matches_reference(
        lambda gen: kmeans(data, k, gen, weights=weights, n_init=n_init), seed
    )


@given(clustered_points(max_n=80, max_d=24), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_run_simpoint_matches_reference(points, max_k):
    data, weights, seed = points
    weights = np.ones(data.shape[0]) if weights is None else weights
    options = SimPointOptions(max_k=max_k, projected_dims=4, k_dense=3)
    _assert_matches_reference(
        lambda gen: run_simpoint(data, weights, gen, options), seed
    )


@given(clustered_points(max_n=80), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_minibatch_matches_reference(points, k, batch_size):
    data, weights, seed = points
    k = min(k, data.shape[0])
    _assert_matches_reference(
        lambda gen: minibatch_kmeans(
            data, k, gen, weights=weights, batch_size=batch_size, max_batches=20
        ),
        seed,
    )


def _edge_case(name: str) -> tuple[np.ndarray, np.ndarray | None, int]:
    """``(data, weights, k)`` of one named corner of the kernels."""
    gen = np.random.default_rng(7)
    if name == "single_point":
        return gen.random((1, 3)), None, 1
    if name == "k_equals_n":
        return gen.random((9, 2)), gen.random(9) + 0.1, 9
    if name == "zero_weights":
        weights = np.zeros(30)
        weights[::5] = gen.random(6) + 0.5
        return gen.random((30, 4)), weights, 4
    if name == "duplicated_rows":
        return np.repeat(gen.random((5, 3)), 6, axis=0), None, 5
    if name == "all_coincident":
        # Integer coordinates make every distance exactly zero.
        return np.ones((12, 3)), None, 4
    if name == "empty_cluster":
        # Two distinct locations and three clusters: the third center
        # duplicates one of the first two, so its cluster stays empty.
        return np.repeat([[0.0, 0.0], [4.0, 2.0]], 10, axis=0), None, 3
    raise AssertionError(name)


EDGE_CASES = (
    "single_point",
    "k_equals_n",
    "zero_weights",
    "duplicated_rows",
    "all_coincident",
    "empty_cluster",
)


@pytest.mark.parametrize("name", EDGE_CASES)
@pytest.mark.parametrize("seed", range(5))
def test_edge_cases_match_reference(name, seed):
    data, weights, k = _edge_case(name)
    _assert_matches_reference(lambda gen: kmeans(data, k, gen, weights=weights), seed)
    n = data.shape[0]
    full = np.ones(n) if weights is None else weights
    options = SimPointOptions(max_k=k, projected_dims=2)
    _assert_matches_reference(lambda gen: run_simpoint(data, full, gen, options), seed)
    _assert_matches_reference(
        lambda gen: minibatch_kmeans(
            data, k, gen, weights=weights, batch_size=1, max_batches=10
        ),
        seed,
    )


def test_edge_cases_reach_their_branches():
    """The coincident input reaches the ``gen.integers`` fallback, and the
    empty-cluster input seeds a duplicate center."""
    data, _, _ = _edge_case("all_coincident")
    assert not _squared_distances(data, data[:1]).any()

    data, _, k = _edge_case("empty_cluster")
    centers = _kmeanspp_init(data, np.ones(data.shape[0]), k, np.random.default_rng(0))
    assert len(np.unique(centers, axis=0)) < k


def test_paper_sized_sweep_matches_reference():
    """One default exact sweep at a realistic size (clusters of hundreds
    of points exercise the pairwise-summation blocks)."""
    gen = np.random.default_rng(2017)
    archetypes = gen.random((12, 96))
    signatures = archetypes[gen.integers(0, 12, size=1500)] + gen.normal(
        0.0, 0.02, (1500, 96)
    )
    weights = gen.integers(1_000, 50_000, size=1500).astype(float)
    _assert_matches_reference(
        lambda g: run_simpoint(signatures, weights, g, SimPointOptions()), 11
    )


@given(
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 0.9),
    st.integers(1, 8),
)
@settings(max_examples=300, deadline=None)
def test_inverse_cdf_draw_matches_choice(n, seed, zero_share, power):
    """``_draw(_cdf(p))`` is ``Generator.choice(n, p=p)``: same index,
    same generator state afterwards."""
    gen = np.random.default_rng(seed)
    raw = gen.random(n) ** power
    raw[gen.random(n) < zero_share] = 0.0
    raw[gen.integers(0, n)] += 1.0
    p = raw / raw.sum()
    state = gen.bit_generator.state
    expected = int(gen.choice(n, p=p))
    expected_state = gen.bit_generator.state
    gen.bit_generator.state = state
    assert _draw(_cdf(p), gen) == expected
    assert gen.bit_generator.state == expected_state


def test_cdf_rejects_non_finite_probabilities():
    with pytest.raises(ValueError, match="NaN or infinity"):
        _cdf(np.array([0.5, np.nan]))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "_lloyd's stop test starts from prev_inertia = inf, and "
        "inf - inertia <= tol * inf holds, so every restart stops after one update"
    ),
)
def test_lloyd_runs_more_than_one_pass():
    # Two well-separated blobs seeded off-centre need several Lloyd
    # passes before the assignment stops changing.
    gen = np.random.default_rng(3)
    data = np.concatenate(
        [gen.normal(0.0, 1.0, (200, 2)), gen.normal(3.0, 1.0, (200, 2))]
    )
    result = kmeans(data, 2, np.random.default_rng(0), n_init=1)
    assert result.iterations > 1
