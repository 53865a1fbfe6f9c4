"""Unit tests for the histogram regression tree."""

import numpy as np
import pytest

from repro.ml.tree import RegressionTree


def step_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 2))
    y = np.where(x[:, 0] > 0.5, 10.0, -10.0)
    return x, y


def depth(tree: RegressionTree) -> int:
    """Depth of a fitted tree (one leaf is depth 0), walked from its root."""

    def walk(node: int) -> int:
        if tree._feature[node] < 0:
            return 0
        return 1 + max(walk(tree._left[node]), walk(tree._right[node]))

    return walk(0)


class TestRegressionTree:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RegressionTree(max_depth=-1)
        with pytest.raises(ValueError):
            RegressionTree(min_samples_leaf=0)
        with pytest.raises(ValueError):
            RegressionTree(n_bins=1)

    def test_rejects_1d_x(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros(5), np.zeros(5))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((5, 2)), np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 2)))

    def test_depth_zero_predicts_mean(self):
        x, y = step_data()
        tree = RegressionTree(max_depth=0).fit(x, y)
        pred = tree.predict(x)
        np.testing.assert_allclose(pred, y.mean())
        assert depth(tree) == 0

    def test_learns_step_function(self):
        x, y = step_data()
        tree = RegressionTree(max_depth=2).fit(x, y)
        pred = tree.predict(x)
        assert np.mean((pred - y) ** 2) < 1.0

    def test_constant_target_single_leaf(self):
        x = np.random.default_rng(0).random((50, 3))
        tree = RegressionTree(max_depth=5).fit(x, np.full(50, 7.0))
        assert depth(tree) == 0
        np.testing.assert_allclose(tree.predict(x), 7.0)

    def test_respects_max_depth(self):
        rng = np.random.default_rng(1)
        x = rng.random((500, 4))
        y = rng.random(500)
        tree = RegressionTree(max_depth=3, min_samples_leaf=1).fit(x, y)
        assert depth(tree) <= 3

    def test_min_samples_leaf_enforced(self):
        x, y = step_data(20)
        tree = RegressionTree(max_depth=10, min_samples_leaf=10).fit(x, y)
        # With 20 samples and a 10-sample floor, at most one split happens.
        assert depth(tree) <= 1

    def test_predict_wrong_ndim(self):
        x, y = step_data()
        tree = RegressionTree().fit(x, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros(3))

    def test_prediction_in_target_range(self):
        rng = np.random.default_rng(2)
        x = rng.random((300, 3))
        y = rng.uniform(-5, 5, 300)
        tree = RegressionTree(max_depth=6).fit(x, y)
        pred = tree.predict(x)
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9
