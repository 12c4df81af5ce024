"""Property-based tests: streamed kernels vs their monolithic oracles.

The contract of the streaming trace tier is *bit-identity*: feeding a
stream tile-by-tile with carried state must produce exactly what the
monolithic kernel produces on the whole stream, at every tile size —
including the adversarial ones (tile 1 maximises carried-state
transitions, a tile larger than the stream degenerates to the
monolithic call).  Anything short of `array_equal` here is a bug, not
tolerance.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.instrumentation.streamed import StreamedSignatureCollector
from repro.mem.cache import CacheSimulator
from repro.mem.ldv import N_DISTANCE_BINS
from repro.mem.reuse import reuse_distances, reuse_histogram
from repro.mem.streaming import (
    ReuseStreamState,
    iter_array_tiles,
    reuse_distances_streamed,
)

line_streams = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=300)

#: The adversarial tile grid the acceptance criteria name: single-access
#: tiles, a prime that never divides the stream, a production-like
#: power of two, and larger-than-stream.
TILE_SIZES = (1, 7, 4096, 1 << 20)


@given(line_streams, st.sampled_from(TILE_SIZES))
@settings(max_examples=120)
def test_streamed_reuse_equals_monolithic(lines, tile_size):
    arr = np.asarray(lines)
    assert np.array_equal(
        reuse_distances_streamed(arr, tile_size), reuse_distances(arr)
    )


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(1, 2000))
@settings(max_examples=25, deadline=None)
def test_streamed_reuse_on_wide_random_streams(seed, size):
    gen = np.random.default_rng(seed)
    arr = gen.integers(0, max(1, size // 3), size=size)
    oracle = reuse_distances(arr)
    for tile_size in TILE_SIZES:
        assert np.array_equal(reuse_distances_streamed(arr, tile_size), oracle)


@given(line_streams)
@settings(max_examples=60)
def test_reuse_state_carries_across_arbitrary_splits(lines):
    """Distances must not depend on *where* the stream is cut, even at
    ragged, unequal split points."""
    arr = np.asarray(lines)
    oracle = reuse_distances(arr)
    state = ReuseStreamState()
    cut = max(1, arr.size // 3)
    parts = [arr[:cut], arr[cut : cut + 1], arr[cut + 1 :]]
    got = np.concatenate(
        [state.feed(part) for part in parts if part.size]
    )
    assert np.array_equal(got, oracle)
    assert state.accesses_seen == arr.size


@given(
    line_streams,
    st.sampled_from(TILE_SIZES),
    st.sampled_from([(1, 1), (2, 2), (4, 8), (16, 4)]),
)
@settings(max_examples=120)
def test_tiled_cache_equals_monolithic(lines, tile_size, geometry):
    n_sets, assoc = geometry
    arr = np.asarray(lines)
    oracle = CacheSimulator(n_sets * assoc * 64, assoc)
    oracle_mask = oracle.miss_mask(arr)

    tiled = CacheSimulator(n_sets * assoc * 64, assoc)
    state = tiled.tile_state()
    mask = np.concatenate(
        [tiled.miss_mask_tile(tile, state) for tile in iter_array_tiles(arr, tile_size)]
    )
    assert np.array_equal(mask, oracle_mask)
    assert state.accesses == arr.size
    assert state.misses == int(oracle_mask.sum())


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(1, 3000))
@settings(max_examples=25, deadline=None)
def test_tiled_cache_packed_path_on_wide_random_streams(seed, size):
    """Wide random streams at an 8-way geometry drive the packed-uint64
    fast path; identity must hold against the monolithic simulator."""
    gen = np.random.default_rng(seed)
    arr = gen.integers(0, max(1, size // 2), size=size)
    cache = CacheSimulator(64 * 8 * 64, 8)
    oracle_mask = cache.miss_mask(arr)
    for tile_size in (7, 4096):
        tiled = CacheSimulator(64 * 8 * 64, 8)
        state = tiled.tile_state()
        mask = np.concatenate(
            [
                tiled.miss_mask_tile(tile, state)
                for tile in iter_array_tiles(arr, tile_size)
            ]
        )
        assert np.array_equal(mask, oracle_mask)


LEVELS = (("L1D", 2 * 1024, 2), ("L2", 8 * 1024, 4))


def _collect(arr, tile_size):
    """Feed ``arr`` tile by tile through the collector production runs."""
    collector = StreamedSignatureCollector(n_blocks=1, levels=LEVELS)
    for tile in iter_array_tiles(arr, tile_size):
        collector.feed(0, tile)
    return collector.result()


@given(line_streams, st.sampled_from(TILE_SIZES))
@settings(max_examples=60)
def test_streamed_ldv_equals_monolithic(lines, tile_size):
    arr = np.asarray(lines)
    oracle = reuse_histogram(reuse_distances(arr), N_DISTANCE_BINS)
    assert np.array_equal(_collect(arr, tile_size)["ldv"], oracle)


@given(line_streams, st.sampled_from(TILE_SIZES))
@settings(max_examples=60)
def test_tiled_hierarchy_equals_monolithic(lines, tile_size):
    """The collector's per-level counts equal a chained ``miss_mask``
    cascade over the whole stream."""
    arr = np.asarray(lines)
    result = _collect(arr, tile_size)
    substream = arr
    for name, size, associativity in LEVELS:
        mask = CacheSimulator(size, associativity).miss_mask(substream)
        assert result["levels"][name] == {
            "accesses": int(substream.size),
            "misses": int(mask.sum()),
        }
        substream = substream[mask]
