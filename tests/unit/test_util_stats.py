"""Tests for the statistics helpers."""

import numpy as np
import pytest

from repro.util.stats import (
    coefficient_of_variation,
    geometric_mean,
    relative_error,
    summarize,
)


class TestRelativeError:
    def test_exact_match_is_zero(self):
        assert relative_error(10.0, 10.0) == 0.0

    def test_basic_value(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)

    def test_symmetric_in_magnitude(self):
        assert relative_error(9.0, 10.0) == pytest.approx(0.1)

    def test_elementwise(self):
        err = relative_error([1.0, 2.0], [2.0, 2.0])
        assert err == pytest.approx([0.5, 0.0])

    def test_zero_reference_zero_estimate(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_zero_reference_nonzero_estimate(self):
        assert np.isinf(relative_error(1.0, 0.0))


class TestCoefficientOfVariation:
    def test_constant_sample(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_known_value(self):
        data = np.array([9.0, 11.0])
        expected = np.std(data, ddof=1) / 10.0
        assert coefficient_of_variation(data) == pytest.approx(expected)

    def test_last_axis(self):
        data = np.array([[1.0, 1.0], [1.0, 3.0]])
        cv = coefficient_of_variation(data)
        assert cv[0] == 0.0
        assert cv[1] > 0.0


class TestGeometricMean:
    def test_uniform(self):
        assert geometric_mean([4.0, 4.0]) == pytest.approx(4.0)

    def test_known(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])


class TestSummarize:
    def test_fields(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.min == 1.0
        assert s.max == 3.0
        assert s.n == 3

    def test_single_sample_std_zero(self):
        assert summarize([5.0]).std == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])
