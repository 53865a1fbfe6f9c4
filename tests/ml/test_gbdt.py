"""Unit tests for the gradient-boosting regressor."""

import numpy as np
import pytest

from repro.ml.gbdt import GradientBoostingRegressor
from repro.ml.metrics import r2_score


def smooth_data(n=1500, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 4))
    y = 3 * x[:, 0] + np.sin(5 * x[:, 1]) + x[:, 2] * x[:, 3]
    return x, y


class TestGradientBoostingRegressor:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=1.5)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.zeros((1, 2)))

    def test_rejects_tiny_data(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor().fit(np.zeros((1, 2)), np.zeros(1))

    def test_fits_smooth_function(self):
        x, y = smooth_data()
        model = GradientBoostingRegressor(n_estimators=80, max_depth=4).fit(x[:1200], y[:1200])
        assert r2_score(y[1200:], model.predict(x[1200:])) > 0.95

    def test_training_loss_decreases(self):
        x, y = smooth_data()
        model = GradientBoostingRegressor(n_estimators=50).fit(x, y)
        assert model.train_scores_[-1] < model.train_scores_[0]

    def test_single_estimator_beats_mean(self):
        x, y = smooth_data()
        model = GradientBoostingRegressor(n_estimators=1, learning_rate=1.0).fit(x, y)
        mse_model = float(np.mean((model.predict(x) - y) ** 2))
        mse_mean = float(np.mean((y - y.mean()) ** 2))
        assert mse_model < mse_mean

    def test_early_stopping_limits_trees(self):
        x, y = smooth_data(800)
        model = GradientBoostingRegressor(
            n_estimators=300, early_stopping_rounds=5, random_state=1
        ).fit(x, y)
        assert len(model.trees_) < 300
        assert len(model.validation_scores_) == len(model.trees_)

    def test_subsampling_still_learns(self):
        x, y = smooth_data()
        model = GradientBoostingRegressor(n_estimators=60, subsample=0.5, random_state=2).fit(x, y)
        assert r2_score(y, model.predict(x)) > 0.9

    def test_deterministic_given_seed(self):
        x, y = smooth_data(500)
        a = GradientBoostingRegressor(n_estimators=20, subsample=0.7, random_state=3).fit(x, y)
        b = GradientBoostingRegressor(n_estimators=20, subsample=0.7, random_state=3).fit(x, y)
        np.testing.assert_allclose(a.predict(x), b.predict(x))

    def test_predict_rejects_wrong_width(self):
        x, y = smooth_data(300)
        model = GradientBoostingRegressor(n_estimators=5).fit(x, y)
        with pytest.raises(ValueError):
            model.predict(np.zeros((4, 7)))


class TestEdgeCases:
    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor().fit(np.zeros((0, 3)), np.zeros(0))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor().fit(np.ones((1, 3)), np.ones(1))

    def test_constant_target_predicts_constant(self):
        rng = np.random.default_rng(5)
        x = rng.random((50, 3))
        model = GradientBoostingRegressor(n_estimators=5).fit(x, np.full(50, 7.0))
        np.testing.assert_allclose(model.predict(rng.random((8, 3))), 7.0)

    def test_two_samples_fit(self):
        # The smallest legal training set: must fit and predict in-range.
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0])
        model = GradientBoostingRegressor(n_estimators=10, learning_rate=1.0).fit(x, y)
        pred = model.predict(x)
        assert np.all(np.isfinite(pred))
        assert np.all((pred >= 1.0 - 1e-9) & (pred <= 2.0 + 1e-9))

    def test_monotone_under_residual_correction(self):
        """A constant multiplicative correction -- the residual model's
        output -- must preserve the ordering of GBDT predictions, so a
        calibrated predictor never reverses the planner's kernel ranking."""
        from repro.telemetry import CalibrationSample, ResidualModel

        x, y = smooth_data(600)
        model = GradientBoostingRegressor(n_estimators=40).fit(x, y)
        preds = sorted(float(p) for p in model.predict(x[:50]) if p > 0)
        residual = ResidualModel()
        for i in range(16):
            residual.record(CalibrationSample("Clamp", 100.0, 230.0, iteration=i))
        corrected = [residual.correct("Clamp", p) for p in preds]
        assert corrected == sorted(corrected)
        for raw, cal in zip(preds, corrected):
            assert cal == pytest.approx(raw * 2.3)
