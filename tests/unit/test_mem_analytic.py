"""Tests for the analytic LDV and hierarchy miss models."""

import numpy as np
import pytest

from repro.ir.memory import PatternKind
from repro.mem.hierarchy import (
    effective_capacity_lines,
    miss_fraction,
    miss_probability,
    misses_from_ldv,
)
from repro.mem.ldv import (
    LDV_COLD_BIN,
    N_DISTANCE_BINS,
    bin_of_distance,
    characteristic_distances,
    distance_bin_centers,
    pattern_ldv_rows,
)


class TestBinning:
    def test_zero_distance_bin(self):
        assert bin_of_distance(np.array([0.0]))[0] == 0

    def test_power_of_two_boundaries(self):
        assert bin_of_distance(np.array([1.0]))[0] == 1
        assert bin_of_distance(np.array([2.0]))[0] == 2
        assert bin_of_distance(np.array([4.0]))[0] == 3

    def test_monotone(self):
        ds = np.array([0, 1, 3, 10, 100, 1e6])
        bins = bin_of_distance(ds)
        assert np.all(np.diff(bins) >= 0)

    def test_huge_distance_clamped(self):
        assert bin_of_distance(np.array([1e30]))[0] == N_DISTANCE_BINS - 2

    def test_bin_centers_shape(self):
        centers = distance_bin_centers()
        assert centers.shape == (N_DISTANCE_BINS,)
        assert centers[0] == 0.0
        assert np.isinf(centers[LDV_COLD_BIN])


class TestCharacteristicDistances:
    @pytest.mark.parametrize("kind", list(PatternKind))
    def test_weights_sum_to_one(self, kind):
        comps = characteristic_distances(kind, np.array([1000.0]))
        assert sum(w for w, _ in comps) == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", list(PatternKind))
    def test_distances_within_footprint(self, kind):
        fp = np.array([5000.0])
        for _, distance in characteristic_distances(kind, fp):
            assert np.all(distance <= fp + 1e-9)
            assert np.all(distance >= 1.0)

    def test_stencil_has_near_component(self):
        comps = characteristic_distances(PatternKind.STENCIL, np.array([10000.0]))
        distances = [float(d[0]) for _, d in comps]
        assert min(distances) < 1000.0


class TestPatternLdvRows:
    def test_rows_are_distributions(self, stream_pattern):
        rows = pattern_ldv_rows(stream_pattern, 4, np.ones(6), np.ones(6))
        assert rows.shape == (6, N_DISTANCE_BINS)
        assert np.allclose(rows.sum(axis=1), 1.0)
        assert np.all(rows >= 0)

    def test_footprint_drift_moves_mass(self, stream_pattern):
        rows = pattern_ldv_rows(
            stream_pattern, 1, np.array([1.0, 64.0]), np.ones(2)
        )
        assert not np.allclose(rows[0], rows[1])

    def test_hot_decay_shifts_mass_to_cold_bins(self, stream_pattern):
        rows = pattern_ldv_rows(
            stream_pattern, 1, np.ones(2), np.array([1.0, 0.0])
        )
        far_mass_full_hot = rows[0, 10:].sum()
        far_mass_no_hot = rows[1, 10:].sum()
        assert far_mass_no_hot > far_mass_full_hot


class TestMissProbability:
    def test_below_capacity_hits(self):
        assert miss_probability(np.array([10.0]), 1000.0)[0] == 0.0

    def test_far_above_capacity_misses(self):
        assert miss_probability(np.array([1e7]), 1000.0)[0] == 1.0

    def test_ramp_midpoint(self):
        assert miss_probability(np.array([1000.0]), 1000.0)[0] == pytest.approx(0.5)

    def test_cold_always_misses(self):
        assert miss_probability(np.array([np.inf]), 1e9)[0] == 1.0

    def test_monotone_in_distance(self):
        d = np.logspace(0, 7, 50)
        p = miss_probability(d, 1000.0)
        assert np.all(np.diff(p) >= -1e-12)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            miss_probability(np.array([1.0]), 0.0)


class TestEffectiveCapacity:
    def test_high_associativity_near_full(self):
        eff = effective_capacity_lines(64 * 1024, 16)
        assert eff == pytest.approx(1024 * (1 - 0.5 / 16))

    def test_direct_mapped_half(self):
        eff = effective_capacity_lines(64 * 1024, 1)
        assert eff == pytest.approx(512)

    def test_invalid(self):
        with pytest.raises(ValueError):
            effective_capacity_lines(0, 8)


class TestMissFraction:
    def test_fits_in_cache_no_misses(self):
        frac = miss_fraction(
            PatternKind.STREAM, np.array([10.0]), 4.0, np.array([0.5]), 1e6
        )
        assert frac[0] == pytest.approx(0.0)

    def test_streams_over_capacity_miss_cold_population(self):
        frac = miss_fraction(
            PatternKind.STREAM, np.array([1e7]), 4.0, np.array([0.5]), 1000.0
        )
        assert frac[0] == pytest.approx(0.5)  # hot half still hits

    def test_monotone_in_footprint(self):
        fps = np.logspace(2, 7, 30)
        frac = miss_fraction(PatternKind.RANDOM, fps, 4.0, np.full(30, 0.0), 5000.0)
        assert np.all(np.diff(frac) >= -1e-12)

    def test_bounded(self):
        frac = miss_fraction(
            PatternKind.GATHER, np.logspace(0, 8, 20), 64.0,
            np.linspace(0, 1, 20), 480.0,
        )
        assert np.all(frac >= 0) and np.all(frac <= 1)

    def test_levels_rows_bitwise_match_per_level_calls(self):
        # The batched multi-level kernel feeds the performance model;
        # each row must equal the scalar-capacity evaluation exactly
        # (same float ops, not just approximately).
        from repro.mem.hierarchy import miss_fraction_levels

        fps = np.logspace(1, 7, 40)
        hot = np.linspace(0.0, 1.0, 40)
        capacities = (480.0, 3840.0, 122880.0)
        for kind in PatternKind:
            rows = miss_fraction_levels(kind, fps, 16.0, hot, capacities)
            assert rows.shape == (3, 40)
            for level, capacity in enumerate(capacities):
                single = miss_fraction(kind, fps, 16.0, hot, capacity)
                assert np.array_equal(rows[level], single), (kind, capacity)

    def test_levels_monotone_down_the_hierarchy(self):
        from repro.mem.hierarchy import miss_fraction_levels

        fps = np.logspace(2, 6, 25)
        rows = miss_fraction_levels(
            PatternKind.RANDOM, fps, 8.0, np.full(25, 0.3),
            (480.0, 3840.0, 122880.0),
        )
        # Larger capacity can only lower the raw miss fraction.
        assert np.all(rows[1] <= rows[0] + 1e-12)
        assert np.all(rows[2] <= rows[1] + 1e-12)


class TestMissesFromLdv:
    def test_counts_weighted_by_probability(self):
        ldv = np.zeros(N_DISTANCE_BINS)
        ldv[0] = 100.0          # immediate reuse: hits
        ldv[LDV_COLD_BIN] = 50  # cold: misses
        assert misses_from_ldv(ldv, 1000.0) == pytest.approx(50.0)
