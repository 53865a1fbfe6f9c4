"""``repro.ml`` -- from-scratch gradient-boosted trees (XGBoost stand-in)."""

from .tree import RegressionTree
from .gbdt import GradientBoostingRegressor
from .metrics import mape, r2_score, within_tolerance_accuracy

__all__ = [
    "RegressionTree",
    "GradientBoostingRegressor",
    "mape",
    "r2_score",
    "within_tolerance_accuracy",
]
