"""Property-based tests for the reuse-distance and cache substrates."""

import numpy as np
from hypothesis import given, settings, strategies as st
from reuse_reference import reuse_distances_fenwick

from repro.mem.cache import CacheSimulator
from repro.mem.ldv import N_DISTANCE_BINS, bin_of_distance
from repro.mem.reuse import (
    reuse_distances,
    reuse_distances_vectorised,
    reuse_histogram,
)

line_streams = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=300)


@given(line_streams)
@settings(max_examples=120)
def test_vectorised_equals_fenwick_oracle(lines):
    """The argsort/merge-count formulation must match the golden
    Fenwick implementation element-for-element on arbitrary streams."""
    arr = np.asarray(lines)
    assert np.array_equal(
        reuse_distances_vectorised(arr), reuse_distances_fenwick(arr)
    )


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(1, 2000))
@settings(max_examples=25, deadline=None)
def test_vectorised_equals_fenwick_on_wide_random_streams(seed, size):
    gen = np.random.default_rng(seed)
    arr = gen.integers(0, max(1, size // 3), size=size)
    assert np.array_equal(
        reuse_distances_vectorised(arr), reuse_distances_fenwick(arr)
    )


@given(line_streams)
@settings(max_examples=60)
def test_first_access_per_line_is_cold(lines):
    arr = np.asarray(lines)
    distances = reuse_distances(arr)
    seen = set()
    for i, line in enumerate(lines):
        if line not in seen:
            assert distances[i] == -1
            seen.add(line)
        else:
            assert distances[i] >= 0


@given(line_streams)
@settings(max_examples=60)
def test_distances_bounded_by_distinct_lines(lines):
    arr = np.asarray(lines)
    distances = reuse_distances(arr)
    n_distinct = len(set(lines))
    assert distances.max(initial=-1) <= n_distinct - 1


@given(line_streams)
@settings(max_examples=60)
def test_cold_count_equals_distinct_lines(lines):
    arr = np.asarray(lines)
    distances = reuse_distances(arr)
    assert int((distances == -1).sum()) == len(set(lines))


@given(line_streams)
@settings(max_examples=60)
def test_histogram_conserves_accesses(lines):
    arr = np.asarray(lines)
    hist = reuse_histogram(reuse_distances(arr), N_DISTANCE_BINS)
    assert hist.sum() == len(lines)


@given(line_streams)
@settings(max_examples=40)
def test_fully_associative_cache_agrees_with_stack_distance(lines):
    """The defining LRU property: hit iff stack distance < capacity."""
    capacity_lines = 8
    arr = np.asarray(lines)
    distances = reuse_distances(arr)
    cache = CacheSimulator(64 * capacity_lines, capacity_lines)  # fully assoc.
    mask = cache.miss_mask(arr)
    expected = (distances < 0) | (distances >= capacity_lines)
    assert np.array_equal(mask, expected)


@given(line_streams, st.integers(min_value=1, max_value=4))
@settings(max_examples=40)
def test_larger_cache_never_misses_more(lines, doublings):
    arr = np.asarray(lines)
    small = CacheSimulator(1024, 4).simulate(arr).misses
    big = CacheSimulator(1024 * 2**doublings, 4).simulate(arr).misses
    assert big <= small


@given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
@settings(max_examples=80)
def test_bin_of_distance_brackets_value(distance):
    b = int(bin_of_distance(np.array([distance]))[0])
    if b == 0:
        assert distance < 1.0
    elif b < N_DISTANCE_BINS - 2:
        assert 2.0 ** (b - 1) <= distance < 2.0**b
