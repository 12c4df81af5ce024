"""Tests for barrier-point coalescing (Section VIII future work)."""

import numpy as np
import pytest

from repro.core.coalesce import aggregate_observation, aggregate_values, coalesce_groups
from repro.instrumentation.collector import DiscoveryObservation, Nonzeros


class TestCoalesceGroups:
    def test_zero_threshold_keeps_everything_separate(self):
        groups = coalesce_groups(np.array([1.0, 2.0, 3.0]), 0.0)
        assert list(groups) == [0, 1, 2]

    def test_merges_until_budget(self):
        groups = coalesce_groups(np.array([1.0, 1.0, 1.0, 1.0]), 2.0)
        assert list(groups) == [0, 0, 1, 1]

    def test_groups_are_consecutive_and_monotone(self):
        gen = np.random.default_rng(0)
        weights = gen.random(200) * 10
        groups = coalesce_groups(weights, 25.0)
        diffs = np.diff(groups)
        assert np.all((diffs == 0) | (diffs == 1))
        assert groups[0] == 0

    def test_each_group_reaches_budget(self):
        gen = np.random.default_rng(1)
        weights = gen.random(500) * 5
        threshold = 30.0
        groups = coalesce_groups(weights, threshold)
        sums = np.bincount(groups, weights=weights)
        assert np.all(sums >= threshold)

    def test_trailing_remainder_merged(self):
        # 3 + small remainder: remainder folds into the last full group.
        groups = coalesce_groups(np.array([5.0, 5.0, 0.5]), 5.0)
        assert groups[2] == groups[1]

    def test_huge_threshold_single_group(self):
        groups = coalesce_groups(np.ones(10), 1e9)
        assert np.all(groups == 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            coalesce_groups(np.zeros(0), 1.0)
        with pytest.raises(ValueError):
            coalesce_groups(np.ones(3), -1.0)


class TestAggregation:
    def test_aggregate_values_conserves_sums(self):
        values = np.random.default_rng(2).random((10, 3, 4))
        groups = coalesce_groups(np.ones(10), 2.0)
        agg = aggregate_values(values, groups)
        assert agg.shape[0] == int(groups.max()) + 1
        assert agg.sum() == pytest.approx(values.sum())

    def test_aggregate_values_groups_correctly(self):
        values = np.arange(6, dtype=float)
        groups = np.array([0, 0, 1, 1, 2, 2])
        assert list(aggregate_values(values, groups)) == [1.0, 5.0, 9.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_values(np.ones((3, 2)), np.zeros(4, dtype=int))

    def test_aggregate_observation(self):
        gen = np.random.default_rng(3)
        bbv = gen.random((6, 4))
        obs = DiscoveryObservation(
            bbv=Nonzeros.of(bbv),
            ldv=Nonzeros.of(gen.random((6, 5))),
            weights=np.ones(6),
            run_index=2,
        )
        groups = np.array([0, 0, 0, 1, 1, 1])
        merged = aggregate_observation(obs, groups)
        assert merged.n_barrier_points == 2
        assert merged.run_index == 2
        assert merged.bbv.shape == (2, 4)
        assert merged.bbv.values.sum() == pytest.approx(bbv.sum())
        assert merged.weights.sum() == pytest.approx(6.0)
