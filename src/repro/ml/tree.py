"""Histogram-based regression trees (the weak learner for our GBDT).

Implements the split-finding strategy modern boosting libraries use:
feature values are bucketed into quantile histograms once, and each node
scans bucket boundaries for the split minimizing the squared-error
impurity. Trees are stored in flat arrays for fast vectorized prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RegressionTree"]


@dataclass
class _Split:
    feature: int
    threshold: float
    gain: float


class RegressionTree:
    """A CART-style regression tree with histogram split finding.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_leaf:
        Minimum samples in each child for a split to be admissible.
    n_bins:
        Number of quantile bins per feature for candidate thresholds.
    """

    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 5, n_bins: int = 64) -> None:
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.n_bins = n_bins
        # Flat tree arrays, populated by fit().
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[float] = []
        self._fitted = False

    # ------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionTree":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be 2-D (samples x features)")
        if len(x) != len(y):
            raise ValueError("x and y must have the same length")
        if len(x) == 0:
            raise ValueError("cannot fit a tree on zero samples")
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        self._build(x, y, np.arange(len(x)), depth=0)
        self._fitted = True
        return self

    def _new_node(self) -> int:
        self._feature.append(-1)
        self._threshold.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(0.0)
        return len(self._feature) - 1

    def _build(self, x: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int) -> int:
        node = self._new_node()
        target = y[idx]
        self._value[node] = float(target.mean())
        if depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf or np.ptp(target) == 0:
            return node
        split = self._best_split(x[idx], target)
        if split is None:
            return node
        mask = x[idx, split.feature] <= split.threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
            return node
        self._feature[node] = split.feature
        self._threshold[node] = split.threshold
        self._left[node] = self._build(x, y, left_idx, depth + 1)
        self._right[node] = self._build(x, y, right_idx, depth + 1)
        return node

    def _best_split(self, x: np.ndarray, y: np.ndarray) -> _Split | None:
        n, d = x.shape
        total_sum = y.sum()
        total_sq = (y * y).sum()
        base_impurity = total_sq - total_sum**2 / n
        best: _Split | None = None
        for f in range(d):
            col = x[:, f]
            lo, hi = col.min(), col.max()
            if lo == hi:
                continue
            # Quantile-ish candidate thresholds via histogram bin edges.
            qs = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
            thresholds = np.unique(np.quantile(col, qs))
            if thresholds.size == 0:
                continue
            order = np.argsort(col, kind="stable")
            sorted_col = col[order]
            sorted_y = y[order]
            csum = np.cumsum(sorted_y)
            csq = np.cumsum(sorted_y * sorted_y)
            # Position of each threshold in the sorted column.
            pos = np.searchsorted(sorted_col, thresholds, side="right")
            valid = (pos >= self.min_samples_leaf) & (pos <= n - self.min_samples_leaf)
            if not valid.any():
                continue
            pos = pos[valid]
            thr = thresholds[valid]
            left_n = pos.astype(np.float64)
            left_sum = csum[pos - 1]
            left_sq = csq[pos - 1]
            right_n = n - left_n
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            impurity = (left_sq - left_sum**2 / left_n) + (right_sq - right_sum**2 / right_n)
            gains = base_impurity - impurity
            k = int(np.argmax(gains))
            if gains[k] > 1e-12 and (best is None or gains[k] > best.gain):
                best = _Split(feature=f, threshold=float(thr[k]), gain=float(gains[k]))
        return best

    # ------------------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("tree is not fitted")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be 2-D (samples x features)")
        out = np.empty(len(x), dtype=np.float64)
        feature = np.asarray(self._feature)
        threshold = np.asarray(self._threshold)
        left = np.asarray(self._left)
        right = np.asarray(self._right)
        value = np.asarray(self._value)
        nodes = np.zeros(len(x), dtype=np.int64)
        active = np.arange(len(x))
        while active.size:
            cur = nodes[active]
            is_leaf = feature[cur] < 0
            done = active[is_leaf]
            out[done] = value[cur[is_leaf]]
            active = active[~is_leaf]
            if active.size == 0:
                break
            cur = nodes[active]
            go_left = x[active, feature[cur]] <= threshold[cur]
            nodes[active] = np.where(go_left, left[cur], right[cur])
        return out
