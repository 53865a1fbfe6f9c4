"""ML-based Preprocessing Latency Predictor (§5.2).

RAP needs the standalone latency of arbitrary (possibly fused, possibly
sharded) preprocessing kernels while searching co-running plans, and
measuring each candidate on hardware would dominate the search. The paper
trains per-family XGBoost models offline from ~11K measured kernel
configurations; we do the same with our from-scratch GBDT
(:mod:`repro.ml`) against the simulator's ground-truth kernel latencies.

Families follow Table 5: Ngram, Onehot, Bucketize, and FirstX have unique
performance parameters and get dedicated models; every remaining operator
is latency-determined by its input shape and shares the ``1D Ops`` model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..gpusim.kernel import KernelDesc
from ..gpusim.resources import A100_SPEC
from ..ml.gbdt import GradientBoostingRegressor
from ..ml.metrics import within_tolerance_accuracy
from ..preprocessing.ops import (
    OP_REGISTRY,
    Bucketize,
    FirstX,
    Ngram,
    Onehot,
    PreprocessingOp,
)

__all__ = [
    "PREDICTOR_FAMILIES",
    "KernelSample",
    "collect_training_samples",
    "PreprocessingLatencyPredictor",
]

PREDICTOR_FAMILIES = ("1D Ops", "FirstX", "Ngram", "Onehot", "Bucketize")

#: Share of the collected samples held out for Table-5 accuracy (the 9:1 split).
HOLDOUT_FRACTION = 0.1

_FEATURE_NAMES = (
    "num_warps",
    "log_warps",
    "members",
    "rows",
    "avg_list_length",
    "param_0",
)


@dataclass(frozen=True)
class KernelSample:
    """One (configuration, measured latency) pair for predictor training."""

    family: str
    features: tuple[float, ...]
    latency_us: float


def kernel_family(kernel: KernelDesc) -> str:
    """Map a kernel's operator tag to its Table-5 predictor family."""
    cls = OP_REGISTRY.get(kernel.tag)
    if cls is None:
        return "1D Ops"
    return cls.predictor_family


def kernel_features(kernel: KernelDesc) -> tuple[float, ...]:
    """Extract the predictor feature vector from a kernel descriptor.

    Works uniformly for plain, fused, and sharded kernels: warp count and
    fusion degree come from the descriptor, row counts and operator
    parameters from its metadata (0 when unknown).
    """
    meta = kernel.meta or {}
    params = meta.get("params", ())
    numeric = [p for p in params if isinstance(p, (int, float))]
    param0 = float(numeric[0]) if numeric else 0.0
    rows = float(meta.get("rows", 0))
    members = float(meta.get("members", 1))
    warps = float(kernel.num_warps)
    return (
        warps,
        float(np.log2(warps + 1.0)),
        members,
        rows,
        float(meta.get("avg_list_length", 0.0)),
        param0,
    )


def _sample_op(family: str, rng: np.random.Generator) -> tuple[PreprocessingOp, float]:
    """Draw a random operator configuration for one family.

    Returns the op and the average list length to cost it at.
    """
    avg_len = float(rng.uniform(1.0, 6.0))
    if family == "Ngram":
        k = int(rng.integers(2, 9))
        op = Ngram(
            inputs=tuple(f"f{i}" for i in range(k)),
            output="out",
            n=int(rng.integers(2, 5)),
            out_hash_size=int(rng.integers(10_000, 2_000_000)),
        )
    elif family == "Onehot":
        op = Onehot(inputs=("f0",), output="out", num_classes=int(rng.integers(4, 512)))
    elif family == "Bucketize":
        n_borders = int(rng.integers(2, 128))
        op = Bucketize(
            inputs=("f0",), output="out", borders=tuple(np.linspace(0.0, 1.0, n_borders))
        )
    elif family == "FirstX":
        op = FirstX(inputs=("f0",), output="out", x=int(rng.integers(1, 12)))
    else:  # 1D Ops: any shape-determined operator
        one_d = [
            name
            for name, cls in OP_REGISTRY.items()
            if cls.predictor_family == "1D Ops"
        ]
        name = one_d[int(rng.integers(0, len(one_d)))]
        op = OP_REGISTRY[name](inputs=("f0",), output="out")
    return op, avg_len


def collect_training_samples(num_samples: int = 11_000, seed: int = 7) -> list[KernelSample]:
    """Offline training-data collection: ~11K kernel configs (as in §8.4).

    Each sample draws an operator family, a configuration, and a batch
    size, lowers it to an A100 kernel, and records (features, measured
    latency).
    """
    rng = np.random.default_rng(seed)
    samples: list[KernelSample] = []
    for _ in range(num_samples):
        family = PREDICTOR_FAMILIES[int(rng.integers(0, len(PREDICTOR_FAMILIES)))]
        op, avg_len = _sample_op(family, rng)
        rows = int(rng.integers(256, 65_536))
        kernel = op.gpu_kernel(rows, A100_SPEC, avg_list_length=avg_len)
        samples.append(
            KernelSample(
                family=family,
                features=kernel_features(kernel),
                latency_us=kernel.duration_us,
            )
        )
    return samples


class PreprocessingLatencyPredictor:
    """Per-family GBDT latency models with a shared feature schema."""

    def __init__(
        self,
        n_estimators: int = 150,
        max_depth: int = 6,
        learning_rate: float = 0.12,
        random_state: int = 0,
    ) -> None:
        self._params = {
            "n_estimators": n_estimators,
            "max_depth": max_depth,
            "learning_rate": learning_rate,
            "random_state": random_state,
        }
        self.models: dict[str, GradientBoostingRegressor] = {}

    # ------------------------------------------------------------------

    def fit(self, samples: Iterable[KernelSample]) -> "PreprocessingLatencyPredictor":
        """Train one model per family on log-latency targets."""
        by_family: dict[str, list[KernelSample]] = {}
        for s in samples:
            by_family.setdefault(s.family, []).append(s)
        if not by_family:
            raise ValueError("no training samples supplied")
        for family, rows in by_family.items():
            x = np.array([r.features for r in rows])
            y = np.log(np.array([r.latency_us for r in rows]) + 1e-9)
            model = GradientBoostingRegressor(**self._params)
            model.fit(x, y)
            self.models[family] = model
        return self

    @property
    def is_fitted(self) -> bool:
        return bool(self.models)

    # ------------------------------------------------------------------

    def predict_kernel(self, kernel: KernelDesc) -> float:
        """Predicted standalone latency (microseconds) of one kernel."""
        family = kernel_family(kernel)
        model = self.models.get(family) or self.models.get("1D Ops")
        if model is None:
            raise RuntimeError("predictor has no trained models")
        x = np.array([kernel_features(kernel)])
        return float(np.exp(model.predict(x)[0]))

    def predict_total(self, kernels: Sequence[KernelDesc]) -> float:
        """Sum of predicted standalone latencies (the Fig.-6 sum)."""
        return sum(self.predict_kernel(k) for k in kernels)

    def fingerprint(self) -> str:
        """Content identity of this trained model for plan-cache keys.

        Two predictors with equal hyperparameters trained on the same
        deterministic sample stream produce identical models, so the
        (params, families) pair identifies the predictions without hashing
        every tree.
        """
        import hashlib
        import json

        payload = json.dumps(
            {"params": self._params, "families": sorted(self.models)}, sort_keys=True
        )
        return f"gbdt:{hashlib.sha256(payload.encode()).hexdigest()[:16]}"

    # ------------------------------------------------------------------

    def evaluate(
        self,
        samples: Sequence[KernelSample],
        tolerance: float = 0.10,
    ) -> dict[str, float]:
        """Table-5 accuracy per family: fraction within ``tolerance``."""
        by_family: dict[str, tuple[list, list]] = {}
        for s in samples:
            xs, ys = by_family.setdefault(s.family, ([], []))
            xs.append(s.features)
            ys.append(s.latency_us)
        out: dict[str, float] = {}
        for family, (xs, ys) in by_family.items():
            model = self.models.get(family)
            if model is None:
                continue
            pred = np.exp(model.predict(np.array(xs)))
            out[family] = within_tolerance_accuracy(np.array(ys), pred, tolerance)
        return out


def train_default_predictor(
    num_samples: int = 11_000,
    seed: int = 7,
) -> tuple[PreprocessingLatencyPredictor, dict[str, float]]:
    """Offline phase: collect samples, train, and report Table-5 accuracy.

    Samples are split 9:1 into train/eval as in the paper.
    """
    samples = collect_training_samples(num_samples, seed=seed)
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(len(samples))
    n_eval = max(1, int(len(samples) * HOLDOUT_FRACTION))
    eval_set = [samples[i] for i in perm[:n_eval]]
    train_set = [samples[i] for i in perm[n_eval:]]
    predictor = PreprocessingLatencyPredictor().fit(train_set)
    accuracy = predictor.evaluate(eval_set)
    return predictor, accuracy
