"""Regression metrics, including the paper's Table-5 accuracy criterion."""

from __future__ import annotations

import numpy as np

__all__ = ["mape", "r2_score", "within_tolerance_accuracy"]


def _validate(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("empty arrays")
    return y_true, y_pred


def mape(y_true: np.ndarray, y_pred: np.ndarray, eps: float = 1e-12) -> float:
    y_true, y_pred = _validate(y_true, y_pred)
    return float(np.mean(np.abs(y_true - y_pred) / np.maximum(np.abs(y_true), eps)))


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = _validate(y_true, y_pred)
    ss_res = np.sum((y_true - y_pred) ** 2)
    ss_tot = np.sum((y_true - y_true.mean()) ** 2)
    if ss_tot == 0:
        return 1.0 if ss_res == 0 else 0.0
    return float(1.0 - ss_res / ss_tot)


def within_tolerance_accuracy(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    tolerance: float = 0.10,
) -> float:
    """Fraction of predictions within ``tolerance`` relative error.

    This is the paper's Table-5 metric: "the percentage of samples where
    the predicted latency deviates by no more than a 10% absolute gap from
    the actual measured latency".
    """
    y_true, y_pred = _validate(y_true, y_pred)
    rel = np.abs(y_pred - y_true) / np.maximum(np.abs(y_true), 1e-12)
    return float(np.mean(rel <= tolerance + 1e-12))
