"""Tests for the relative-error helper."""

import numpy as np
import pytest

from repro.util.stats import relative_error


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
