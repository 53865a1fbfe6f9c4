"""Unit tests for regression metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml.metrics import mape, r2_score, within_tolerance_accuracy

arrays = st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50)


class TestBasicMetrics:
    def test_mape(self):
        assert mape([2, 4], [1, 2]) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mape([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mape([], [])

    def test_r2_perfect(self):
        assert r2_score([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_r2_mean_predictor(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_r2_constant_target(self):
        assert r2_score([5, 5], [5, 5]) == 1.0
        assert r2_score([5, 5], [4, 6]) == 0.0


class TestWithinToleranceAccuracy:
    def test_all_exact(self):
        assert within_tolerance_accuracy([1, 2], [1, 2]) == 1.0

    def test_partial(self):
        # 10% tolerance: 1.05 passes, 1.5 fails.
        assert within_tolerance_accuracy([1.0, 1.0], [1.05, 1.5]) == 0.5

    def test_boundary_inclusive(self):
        assert within_tolerance_accuracy([1.0], [1.1], tolerance=0.10) == 1.0

    @given(arrays)
    def test_self_prediction_is_perfect(self, ys):
        y = np.array(ys)
        assert within_tolerance_accuracy(y, y) == 1.0

    @given(arrays)
    def test_bounded_in_unit_interval(self, ys):
        y = np.array(ys)
        acc = within_tolerance_accuracy(y, y + 1.0)
        assert 0.0 <= acc <= 1.0
