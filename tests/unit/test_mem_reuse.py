"""Tests for exact reuse distances and the cache simulator."""

import numpy as np
import pytest
from reuse_reference import reuse_distances_fenwick

from repro.mem.cache import CacheSimulator
from repro.mem.ldv import N_DISTANCE_BINS
from repro.mem.reuse import (
    reuse_distances,
    reuse_distances_vectorised,
    reuse_histogram,
)


class TestReuseDistances:
    def test_all_cold_for_distinct_lines(self):
        distances = reuse_distances(np.arange(10))
        assert np.all(distances == -1)

    def test_immediate_reuse_distance_zero(self):
        distances = reuse_distances(np.array([5, 5]))
        assert distances[1] == 0

    def test_classic_example(self):
        # a b c a : the second 'a' saw 2 distinct lines in between.
        distances = reuse_distances(np.array([1, 2, 3, 1]))
        assert distances[3] == 2

    def test_repeated_interleave(self):
        # a b a b : each reuse has distance 1.
        distances = reuse_distances(np.array([1, 2, 1, 2]))
        assert distances[2] == 1
        assert distances[3] == 1

    def test_duplicate_intermediates_counted_once(self):
        # a b b a : 'b' twice still counts as one distinct line.
        distances = reuse_distances(np.array([1, 2, 2, 1]))
        assert distances[3] == 1

    def test_matches_bruteforce(self):
        gen = np.random.default_rng(42)
        lines = gen.integers(0, 30, size=300)
        fast = reuse_distances(lines)
        last = {}
        for i, line in enumerate(lines):
            if line in last:
                expected = len(set(lines[last[line] + 1 : i].tolist()))
                assert fast[i] == expected, f"position {i}"
            else:
                assert fast[i] == -1
            last[line] = i

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            reuse_distances(np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError):
            reuse_distances_fenwick(np.zeros((2, 2), dtype=int))

    def test_default_is_the_vectorised_path(self):
        lines = np.array([1, 2, 3, 1, 2, 3])
        assert np.array_equal(
            reuse_distances(lines), reuse_distances_vectorised(lines)
        )


class TestVectorisedAgainstFenwickOracle:
    """Adversarial equivalence: the merge-count formulation must match
    the golden Fenwick implementation on the streams that stress it."""

    @pytest.mark.parametrize(
        "label,lines",
        [
            ("empty", np.array([], dtype=np.int64)),
            ("single", np.array([7])),
            ("all_same", np.zeros(1024, dtype=np.int64)),
            ("all_distinct", np.arange(1024)),
            ("sawtooth", np.tile(np.arange(17), 61)),
            ("reverse_sawtooth", np.tile(np.arange(17)[::-1], 61)),
            ("zigzag", np.abs(np.arange(-512, 512))),
            ("two_phase", np.r_[np.arange(100), np.arange(100), np.zeros(100, int)]),
            ("power_of_two", np.tile(np.arange(16), 64)),
            ("off_power_of_two", np.tile(np.arange(15), 68)),
        ],
    )
    def test_adversarial_streams(self, label, lines):
        assert np.array_equal(
            reuse_distances_vectorised(lines), reuse_distances_fenwick(lines)
        ), label

    def test_random_streams(self):
        gen = np.random.default_rng(2017)
        for _ in range(25):
            size = int(gen.integers(1, 700))
            spread = int(gen.integers(1, 80))
            lines = gen.integers(0, spread, size=size)
            assert np.array_equal(
                reuse_distances_vectorised(lines),
                reuse_distances_fenwick(lines),
            )


class TestReuseHistogram:
    def test_total_preserved(self):
        gen = np.random.default_rng(0)
        lines = gen.integers(0, 50, size=500)
        hist = reuse_histogram(reuse_distances(lines), N_DISTANCE_BINS)
        assert hist.sum() == 500

    def test_cold_accesses_in_last_bin(self):
        hist = reuse_histogram(reuse_distances(np.arange(7)), N_DISTANCE_BINS)
        assert hist[-1] == 7
        assert hist[:-1].sum() == 0


class TestCacheSimulator:
    def test_repeated_line_hits(self):
        cache = CacheSimulator(1024, 2)
        assert cache.access(1) is False  # cold
        assert cache.access(1) is True

    def test_lru_eviction_order(self):
        # Direct-mapped 1-set cache of 2 ways: A B A C -> C evicts B.
        cache = CacheSimulator(128, 2)  # 2 lines total, 1 set
        assert cache.n_sets == 1
        cache.access(0)
        cache.access(1)
        assert cache.access(0) is True   # A is MRU now
        cache.access(2)                  # evicts B (LRU)
        assert cache.access(0) is True
        assert cache.access(1) is False  # B was evicted

    def test_working_set_within_capacity_all_hits_after_warmup(self):
        cache = CacheSimulator(64 * 64, 8)  # 64 lines
        lines = np.tile(np.arange(32), 10)
        result = cache.simulate(lines)
        assert result.misses == 32  # only cold misses

    def test_streaming_over_capacity_always_misses(self):
        cache = CacheSimulator(64 * 16, 16)  # fully assoc. 16 lines
        lines = np.tile(np.arange(64), 5)
        result = cache.simulate(lines)
        assert result.miss_rate == 1.0

    def test_miss_mask_agrees_with_counts(self):
        gen = np.random.default_rng(3)
        lines = gen.integers(0, 100, size=400)
        cache = CacheSimulator(2048, 4)
        mask = cache.miss_mask(lines)
        assert mask.sum() == cache.simulate(lines).misses

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheSimulator(100, 3)  # not divisible into sets

    def test_lockstep_matches_scalar_walk(self):
        # The vectorised lockstep path must be access-for-access
        # equivalent to the reference per-access walk.
        gen = np.random.default_rng(11)
        for size, assoc, spread, n in (
            (2048, 4, 100, 3000),     # many sets, lockstep path
            (2048, 4, 5000, 3000),    # mostly cold
            (4096, 1, 300, 2000),     # direct-mapped
            (64 * 16, 16, 64, 500),   # fully associative -> fallback
        ):
            lines = gen.integers(0, spread, size=n)
            vec = CacheSimulator(size, assoc).miss_mask(lines)
            reference = CacheSimulator(size, assoc)
            reference.reset()
            scalar = np.array(
                [not reference.access(int(line)) for line in lines]
            )
            assert np.array_equal(vec, scalar), (size, assoc, spread)

    def test_skewed_stream_falls_back_to_scalar_walk(self):
        # All accesses in one set: the lockstep rounds would be as long
        # as the stream, so the simulator takes the scalar path — the
        # answer must be identical either way.
        cache = CacheSimulator(64 * 64, 2)  # 32 sets
        lines = np.tile(np.array([0, 32, 64]), 500)  # one set, 3 tags
        mask = cache.miss_mask(lines)
        # 2-way LRU over 3 cyclically-reused tags thrashes forever.
        assert mask.all()

    def test_empty_stream(self):
        cache = CacheSimulator(2048, 4)
        assert cache.miss_mask(np.array([], dtype=np.int64)).size == 0
        assert cache.simulate([]).accesses == 0
