"""Gradient-boosted regression trees: the XGBoost stand-in (§5.2).

Squared-error gradient boosting with shrinkage, optional row subsampling,
and optional early stopping against a held-out fraction. This is all the
paper's latency predictor needs: Table 5's bar is >=92% of predictions
within +/-10% of the measured kernel latency, which a few dozen shallow
trees reach on the simulator's ground truth.
"""

from __future__ import annotations

import numpy as np

from .tree import RegressionTree

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor:
    """Least-squares gradient boosting over histogram regression trees."""

    def __init__(
        self,
        n_estimators: int = 120,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
        subsample: float = 1.0,
        n_bins: int = 64,
        early_stopping_rounds: int | None = None,
        validation_fraction: float = 0.1,
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.n_bins = n_bins
        self.early_stopping_rounds = early_stopping_rounds
        self.validation_fraction = validation_fraction
        self.random_state = random_state
        self.trees_: list[RegressionTree] = []
        self.base_prediction_: float = 0.0
        self.train_scores_: list[float] = []
        self.validation_scores_: list[float] = []
        self._num_features: int | None = None

    # ------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("x must be 2-D and aligned with y")
        if len(x) < 2:
            raise ValueError("need at least two samples")
        rng = np.random.default_rng(self.random_state)
        self._num_features = x.shape[1]

        if self.early_stopping_rounds is not None:
            n_val = max(1, int(len(x) * self.validation_fraction))
            perm = rng.permutation(len(x))
            val_idx, train_idx = perm[:n_val], perm[n_val:]
            if len(train_idx) < 2:
                raise ValueError("not enough samples for early stopping split")
            x_val, y_val = x[val_idx], y[val_idx]
            x, y = x[train_idx], y[train_idx]
        else:
            x_val = y_val = None

        self.trees_ = []
        self.train_scores_ = []
        self.validation_scores_ = []
        self.base_prediction_ = float(y.mean())
        pred = np.full(len(y), self.base_prediction_)
        val_pred = None if x_val is None else np.full(len(y_val), self.base_prediction_)
        best_val = np.inf
        rounds_since_best = 0

        for _ in range(self.n_estimators):
            residual = y - pred
            if self.subsample < 1.0:
                k = max(2 * self.min_samples_leaf, int(len(x) * self.subsample))
                rows = rng.choice(len(x), size=min(k, len(x)), replace=False)
            else:
                rows = slice(None)
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                n_bins=self.n_bins,
            )
            tree.fit(x[rows], residual[rows])
            update = tree.predict(x)
            pred = pred + self.learning_rate * update
            self.trees_.append(tree)
            self.train_scores_.append(float(np.mean((y - pred) ** 2)))

            if x_val is not None:
                val_pred = val_pred + self.learning_rate * tree.predict(x_val)
                val_mse = float(np.mean((y_val - val_pred) ** 2))
                self.validation_scores_.append(val_mse)
                if val_mse < best_val - 1e-12:
                    best_val = val_mse
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if rounds_since_best >= self.early_stopping_rounds:
                        break
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._num_features is None:
            raise RuntimeError("model is not fitted")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self._num_features:
            raise ValueError(f"x must be 2-D with {self._num_features} features")
        out = np.full(len(x), self.base_prediction_)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(x)
        return out
