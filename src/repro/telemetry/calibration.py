"""Online cost-model calibration: the predict -> observe -> recalibrate loop.

RAP's §5 latency predictor is trained offline, so the planner keeps
trusting stale predictions even when the runtime watches every kernel run
at a different latency (per-op-type regressions from a driver update, a
noisy neighbour, a shifted value distribution). Following the continuous
calibration argument of DLRM performance-model work, this module closes
the loop:

- the runtime records one :class:`CalibrationSample` per executed kernel:
  the cost model's prediction next to the simulator's observed latency.
  A plan's samples repeat every iteration at one scale, so they are
  recorded as one precomputed :class:`SampleBatch`, whose calibrated
  prices the residual model reads as it records them;
- :class:`ResidualModel` maintains a per-op-type multiplicative correction
  from a sliding window of log-ratio residuals (running median by default;
  a :class:`repro.ml.gbdt.GradientBoostingRegressor` over kernel features
  when configured and enough samples exist);
- :class:`CalibratedPredictor` wraps the latency predictor (or the oracle
  fallback) and applies the correction at prediction time, so the planner,
  scheduler, and watchdog all consume recalibrated latencies;
- :class:`DriftDetector` watches the per-iteration mean absolute residual
  and raises a single edge-triggered event when it stays above threshold
  for a sustained window -- the runtime answers by injecting the
  calibrated predictor and replanning.

Everything is deterministic and serializable: corrections are pure
functions of the sample windows, and the windows ride inside checkpoints
so a resumed run replays bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat

import numpy as np

from ..ml.gbdt import GradientBoostingRegressor
from .registry import bucket_counts

__all__ = [
    "CalibrationSample",
    "DriftErrors",
    "SampleBatch",
    "LatencyDrift",
    "drift_factors_at",
    "ResidualModel",
    "CalibratedPredictor",
    "DriftDetector",
    "DriftEvent",
]


@dataclass(frozen=True)
class CalibrationSample:
    """One (predicted, observed) standalone-latency pair for one kernel.

    ``predicted_us`` is always the *base* model's prediction (oracle or
    GBDT, never correction-adjusted) so the residual model learns the
    total multiplier against a stable reference -- recording corrected
    predictions would make the correction chase its own output.
    ``active_predicted_us`` is what the currently injected model actually
    predicted (equal to ``predicted_us`` before any calibration); the
    drift detector judges *that*, so it quiets down once the correction
    lands instead of re-firing forever.
    """

    op_type: str
    predicted_us: float
    observed_us: float
    iteration: int = -1
    stage: int = -1
    features: tuple[float, ...] = ()
    active_predicted_us: float | None = None

    @property
    def active_us(self) -> float:
        """The live model's prediction (base prediction if uncalibrated)."""
        return (
            self.active_predicted_us
            if self.active_predicted_us is not None
            else self.predicted_us
        )

    @cached_property
    def log_ratio(self) -> float:
        """log(observed / base predicted): the multiplicative residual.

        Computed on first read and cached on the instance, so a sample that
        stays in a window across many corrections pays for one log, and a
        sample nobody reads a correction from pays for none.
        """
        return math.log(max(self.observed_us, 1e-9) / max(self.predicted_us, 1e-9))

    @property
    def abs_relative_error(self) -> float:
        """Relative error of the *active* model (what drift detection sees)."""
        return abs(self.observed_us - self.active_us) / max(self.active_us, 1e-9)

    def to_dict(self) -> dict:
        return {
            "op_type": self.op_type,
            "predicted_us": self.predicted_us,
            "observed_us": self.observed_us,
            "iteration": self.iteration,
            "stage": self.stage,
            "features": list(self.features),
            "active_predicted_us": self.active_predicted_us,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationSample":
        active = data.get("active_predicted_us")
        return cls(
            op_type=data["op_type"],
            predicted_us=float(data["predicted_us"]),
            observed_us=float(data["observed_us"]),
            iteration=int(data.get("iteration", -1)),
            stage=int(data.get("stage", -1)),
            features=tuple(float(f) for f in data.get("features", ())),
            active_predicted_us=None if active is None else float(active),
        )


class DriftErrors:
    """What :class:`DriftDetector` reads of one iteration's samples: each
    sample's absolute relative error against the active model, per op type
    in first-appearance order (``per_op``) and all of them in recording
    order (``errors``). The means are summed in those orders, so they equal
    the ones a sample-by-sample pass computes."""

    __slots__ = ("per_op", "errors", "_drift")

    def __init__(self, per_op: dict[str, list[float]], errors: list[float]) -> None:
        self.per_op = per_op
        self.errors = errors
        self._drift: tuple[dict[str, float], float] | None = None

    @classmethod
    def of(cls, samples) -> "DriftErrors":
        per_op: dict[str, list[float]] = {}
        errors: list[float] = []
        for s in samples:
            error = s.abs_relative_error
            errors.append(error)
            per_op.setdefault(s.op_type, []).append(error)
        return cls(per_op, errors)

    @classmethod
    def concat(cls, parts) -> "DriftErrors":
        """Several recordings of one iteration, judged as one stream."""
        per_op: dict[str, list[float]] = {}
        errors: list[float] = []
        for part in parts:
            for op, errs in part.per_op.items():
                per_op.setdefault(op, []).extend(errs)
            errors.extend(part.errors)
        return cls(per_op, errors)

    @property
    def drift(self) -> tuple[dict[str, float], float]:
        """Each op type's mean error and the mean over all samples (0.0 when
        there are none), computed once."""
        if self._drift is None:
            errors = self.errors
            self._drift = (
                {op: sum(errs) / len(errs) for op, errs in self.per_op.items()},
                sum(errors) / len(errors) if errors else 0.0,
            )
        return self._drift


class SampleBatch:
    """One iteration's samples, built once and recorded at many iterations.

    Between plan changes the runtime records the same placed kernels every
    iteration at one scale, and only the iteration number differs -- and,
    under a calibrated predictor, the active prices, which
    :meth:`ResidualModel.record` reads as it records. A batch holds the
    samples as iteration-free templates (a template's own ``iteration`` is
    ignored; the recorder supplies it), in recording order, plus what every
    recording reads:

    - ``ops``: per op type in first-appearance order, its templates and
      their observed latencies and own active prices;
    - ``order``: for each recorded sample, its index in the ``ops``
      templates laid end to end;
    - ``errors``: the :class:`DriftErrors` of the templates as they are
      (what an uncalibrated recording is judged by).

    The templates are shared by every iteration that records the batch, so
    each one's ``log_ratio`` is computed at most once. Treat a batch as
    immutable.
    """

    __slots__ = ("templates", "ops", "order", "errors", "_bucket_counts")

    def __init__(self, templates) -> None:
        self.templates: tuple[CalibrationSample, ...] = tuple(templates)
        grouped: dict[str, list[int]] = {}
        for i, t in enumerate(self.templates):
            grouped.setdefault(t.op_type, []).append(i)
        self.ops: tuple[tuple[str, tuple, tuple[float, ...], tuple], ...] = tuple(
            (
                op,
                tuple(self.templates[i] for i in indices),
                tuple(self.templates[i].observed_us for i in indices),
                tuple(self.templates[i].active_predicted_us for i in indices),
            )
            for op, indices in grouped.items()
        )
        grouped_order = [i for indices in grouped.values() for i in indices]
        order = [0] * len(grouped_order)
        for position, i in enumerate(grouped_order):
            order[i] = position
        self.order: tuple[int, ...] = tuple(order)
        self.errors = DriftErrors.of(self.templates)
        self._bucket_counts: tuple | None = None

    def __len__(self) -> int:
        return len(self.templates)

    def __iter__(self):
        return iter(self.templates)

    def samples(self, iteration: int) -> list[CalibrationSample]:
        """The batch as recorded at ``iteration``, in recording order."""
        return [replace(t, iteration=iteration) for t in self.templates]

    def bucket_counts(self, buckets: tuple[float, ...]) -> tuple:
        """Per op type, :func:`repro.telemetry.registry.bucket_counts` of its
        observed latencies under ``buckets``, computed once per bounds."""
        memo = self._bucket_counts
        if memo is None or memo[0] != buckets:
            memo = self._bucket_counts = (
                buckets,
                tuple(bucket_counts(buckets, observed) for _, _, observed, _ in self.ops),
            )
        return memo[1]


@dataclass(frozen=True)
class LatencyDrift:
    """Injected per-op-type latency drift: kernels of ``op_type`` run
    ``factor`` x their modeled latency from ``start_iteration`` onward
    (until ``end_iteration``, exclusive, when given).

    This is the environment change the calibration loop is built to
    absorb: unlike the uniform ``plan_drift`` fault (which rescales the
    whole distribution and is already handled by graph-set drift), a
    per-op-type factor is invisible to the planner's inputs -- only the
    observed-vs-predicted residual stream can reveal it.
    """

    op_type: str
    factor: float
    start_iteration: int = 0
    end_iteration: int | None = None

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("drift factor must be positive")
        if self.end_iteration is not None and self.end_iteration <= self.start_iteration:
            raise ValueError("end_iteration must be after start_iteration")

    def active_at(self, iteration: int) -> bool:
        if iteration < self.start_iteration:
            return False
        return self.end_iteration is None or iteration < self.end_iteration

    def to_dict(self) -> dict:
        return {
            "op_type": self.op_type,
            "factor": self.factor,
            "start_iteration": self.start_iteration,
            "end_iteration": self.end_iteration,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyDrift":
        return cls(
            op_type=data["op_type"],
            factor=float(data["factor"]),
            start_iteration=int(data.get("start_iteration", 0)),
            end_iteration=(
                int(data["end_iteration"]) if data.get("end_iteration") is not None else None
            ),
        )


def drift_factors_at(schedule, iteration: int) -> dict[str, float]:
    """The composed per-op-type factors active at ``iteration``."""
    factors: dict[str, float] = {}
    for drift in schedule:
        if drift.active_at(iteration):
            factors[drift.op_type] = factors.get(drift.op_type, 1.0) * drift.factor
    return {op: f for op, f in factors.items() if f != 1.0}


# ----------------------------------------------------------------------
# Residual model
# ----------------------------------------------------------------------


class ResidualModel:
    """Per-op-type multiplicative correction learned from residual windows.

    ``mode="quantile"`` (default): the correction for an op type is
    ``exp(median(log(observed / predicted)))`` over its sliding window --
    robust to the occasional contended or faulted sample and exact for the
    dominant failure mode (a constant per-op-type factor).

    ``mode="gbdt"``: once an op type has at least ``min_fit_samples``
    windowed samples with feature vectors, a gradient-boosted regressor
    maps kernel features to the log-residual, capturing *shape-dependent*
    drift; op types below the threshold fall back to the quantile
    correction. Fitting is deterministic (fixed ``random_state``) and
    refit lazily whenever the window content changes.

    Corrections are memoized per op type: :meth:`record` drops its op's
    entry and :meth:`load_state` drops them all, and nothing else writes
    the windows, so a memoized value always equals the median over the
    current window. Once an op's correction has been read, its window's
    log-ratios are also kept sorted, updated per recorded sample, so a
    later read takes the median without sorting.

    A window holds the recorded samples; a batch's entries are its shared
    templates, and each window keeps the iteration numbers and active
    prices beside it, so :meth:`samples_for` and :meth:`state_dict` return
    every sample with the iteration and active price it was recorded at.
    """

    def __init__(
        self,
        window: int = 256,
        min_samples: int = 8,
        mode: str = "quantile",
        min_fit_samples: int = 64,
        clip: float = 32.0,
    ) -> None:
        if mode not in ("quantile", "gbdt"):
            raise ValueError(f"mode must be 'quantile' or 'gbdt', got {mode!r}")
        if window < 1 or min_samples < 1:
            raise ValueError("window and min_samples must be >= 1")
        if clip <= 1.0:
            raise ValueError("clip must exceed 1.0")
        self.window = window
        self.min_samples = min_samples
        self.mode = mode
        self.min_fit_samples = min_fit_samples
        self.clip = clip
        self._samples: dict[str, deque[CalibrationSample]] = {}
        self._iterations: dict[str, deque[int]] = {}
        self._actives: dict[str, deque[float | None]] = {}
        self._sorted: dict[str, list[float]] = {}
        self._gbdt: dict[str, GradientBoostingRegressor] = {}
        self._gbdt_stale: set[str] = set()
        self._corrections: dict[str, float] = {}
        self.total_samples = 0

    # ------------------------------------------------------------------

    def record(
        self,
        sample: CalibrationSample | SampleBatch,
        iteration: int | None = None,
        calibrated: bool = False,
    ) -> DriftErrors | None:
        """Record one sample, or every sample of a :class:`SampleBatch` as
        recorded at ``iteration`` and return what the drift detector reads
        of them.

        A batch is recorded at its templates' own active prices, unless
        ``calibrated``: then each sample's active price is this model's
        correction of its base price (what :class:`CalibratedPredictor`
        prices it at) after every earlier sample was recorded. Only an op
        type's own window sets its correction, so this takes one pass per
        op type (:meth:`_record_calibrated`).
        """
        if isinstance(sample, CalibrationSample):
            self._extend(
                sample.op_type, (sample,), (sample.iteration,), (sample.active_predicted_us,)
            )
            self.total_samples += 1
            return None
        self.total_samples += len(sample)
        if calibrated:
            return self._record_calibrated(sample, iteration)
        for op_type, templates, _, actives in sample.ops:
            self._extend(op_type, templates, repeat(iteration, len(templates)), actives)
        return sample.errors

    def _window(self, op_type: str) -> deque:
        window = self._samples.get(op_type)
        if window is None:
            window = self._samples[op_type] = deque(maxlen=self.window)
            self._iterations[op_type] = deque(maxlen=self.window)
            self._actives[op_type] = deque(maxlen=self.window)
        return window

    def _extend(self, op_type: str, samples, iterations, actives) -> None:
        window = self._window(op_type)
        ordered = self._sorted.get(op_type)
        if ordered is None:
            window.extend(samples)
        else:
            for s in samples:
                if len(window) == window.maxlen:
                    del ordered[bisect_left(ordered, window[0].log_ratio)]
                window.append(s)
                insort(ordered, s.log_ratio)
        self._iterations[op_type].extend(iterations)
        self._actives[op_type].extend(actives)
        self._corrections.pop(op_type, None)
        self._gbdt_stale.add(op_type)

    def _record_calibrated(self, batch: SampleBatch, iteration: int) -> DriftErrors:
        """Record ``batch`` at ``iteration``, pricing each sample as it goes.

        Per op type, each template is priced from the window as it stands
        -- quantile mode with :meth:`correction`'s own expression over the
        running median of the sorted window, gbdt mode through
        :meth:`correct` -- and then appended with its iteration and active
        price. The errors come back per op and, reordered, in recording
        order, so their sums match a sample-by-sample pass.
        """
        per_op: dict[str, list[float]] = {}
        for op_type, templates, observed, _ in batch.ops:
            if self.mode == "gbdt":
                errors = self._record_gbdt(op_type, templates, iteration)
            else:
                errors = self._record_quantile(op_type, templates, observed, iteration)
            per_op[op_type] = errors
        if len(per_op) == 1:
            return DriftErrors(per_op, errors)
        grouped = [e for errors in per_op.values() for e in errors]
        return DriftErrors(per_op, list(map(grouped.__getitem__, batch.order)))

    def _record_quantile(self, op_type: str, templates, observed, iteration: int) -> list[float]:
        window = self._window(op_type)
        ordered = self._sorted.get(op_type)
        if ordered is None:
            ordered = self._sorted[op_type] = sorted(s.log_ratio for s in window)
        maxlen = window.maxlen
        min_samples = self.min_samples
        clip = self.clip
        floor = 1.0 / clip
        errors: list[float] = []
        actives: list[float | None] = []
        median = factor = None  # the factor is recomputed only when the median moves
        for t, observed_us in zip(templates, observed):
            base = t.predicted_us
            n = len(ordered)
            if n < min_samples:
                active = base
            else:
                mid = n // 2
                m = ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
                if m != median:
                    median = m
                    factor = float(min(clip, max(floor, math.exp(m))))
                active = base * factor
            errors.append(abs(observed_us - active) / max(active, 1e-9))
            actives.append(active if active != base else None)
            if n == maxlen:
                del ordered[bisect_left(ordered, window[0].log_ratio)]
            window.append(t)
            insort(ordered, t.log_ratio)
        self._iterations[op_type].extend(repeat(iteration, len(templates)))
        self._actives[op_type].extend(actives)
        self._corrections.pop(op_type, None)
        self._gbdt_stale.add(op_type)
        return errors

    def _record_gbdt(self, op_type: str, templates, iteration: int) -> list[float]:
        errors: list[float] = []
        for t in templates:
            base = t.predicted_us
            active = self.correct(op_type, base, t.features)
            errors.append(abs(t.observed_us - active) / max(active, 1e-9))
            self._extend(op_type, (t,), (iteration,), (active if active != base else None,))
        return errors

    def op_types(self) -> list[str]:
        return sorted(self._samples)

    def _stamped(self, op_type: str):
        """``(sample, iteration recorded at, active price)`` of one window."""
        return zip(
            self._samples.get(op_type, ()),
            self._iterations.get(op_type, ()),
            self._actives.get(op_type, ()),
        )

    def samples_for(self, op_type: str) -> list[CalibrationSample]:
        return [
            s
            if s.iteration == it and s.active_predicted_us == active
            else replace(s, iteration=it, active_predicted_us=active)
            for s, it, active in self._stamped(op_type)
        ]

    # ------------------------------------------------------------------

    def correction(self, op_type: str) -> float:
        """The multiplicative correction for one op type (1.0 = trust base)."""
        memo = self._corrections.get(op_type)
        if memo is not None:
            return memo
        window = self._samples.get(op_type)
        if window is None or len(window) < self.min_samples:
            return 1.0
        log_ratios = self._sorted.get(op_type)
        if log_ratios is None:
            log_ratios = self._sorted[op_type] = sorted(s.log_ratio for s in window)
        n = len(log_ratios)
        mid = n // 2
        median = log_ratios[mid] if n % 2 else 0.5 * (log_ratios[mid - 1] + log_ratios[mid])
        memo = float(min(self.clip, max(1.0 / self.clip, math.exp(median))))
        self._corrections[op_type] = memo
        return memo

    def corrections(self) -> dict[str, float]:
        return {op: self.correction(op) for op in self.op_types()}

    def correct(self, op_type: str, predicted_us: float, features=()) -> float:
        """Apply the learned residual to one base prediction."""
        if self.mode == "gbdt":
            model = self._gbdt_model(op_type)
            if model is not None and features:
                log_corr = float(model.predict(np.asarray([features], dtype=float))[0])
                return self._apply_log_correction(predicted_us, log_corr)
        return predicted_us * self.correction(op_type)

    def _apply_log_correction(self, predicted_us: float, log_corr: float) -> float:
        bound = math.log(self.clip)
        return predicted_us * math.exp(min(bound, max(-bound, log_corr)))

    def _gbdt_model(self, op_type: str) -> GradientBoostingRegressor | None:
        window = self._samples.get(op_type)
        if window is None or len(window) < self.min_fit_samples:
            return None
        rows = [s for s in window if s.features]
        if len(rows) < self.min_fit_samples:
            return None
        if op_type in self._gbdt_stale or op_type not in self._gbdt:
            x = np.asarray([s.features for s in rows], dtype=float)
            y = np.asarray([s.log_ratio for s in rows], dtype=float)
            model = GradientBoostingRegressor(
                n_estimators=40, max_depth=3, learning_rate=0.2, random_state=0
            )
            model.fit(x, y)
            self._gbdt[op_type] = model
            self._gbdt_stale.discard(op_type)
        return self._gbdt[op_type]

    # ------------------------------------------------------------------

    def mean_absolute_percentage_error(self, corrected: bool = False) -> float:
        """MAPE of the base (or corrected) predictions over all windows.

        Each prediction equals :meth:`correct` on that sample; the GBDT
        model is evaluated once per op over the window's feature rows
        (its ``predict`` is elementwise per row, so the values match).
        """
        errors: list[float] = []
        for op_type, window in self._samples.items():
            if corrected:
                preds = self._corrected_window(op_type, window)
            else:
                preds = [s.predicted_us for s in window]
            for s, pred in zip(window, preds):
                errors.append(abs(s.observed_us - pred) / max(s.observed_us, 1e-9))
        return float(sum(errors) / len(errors)) if errors else 0.0

    def _corrected_window(self, op_type: str, window) -> list[float]:
        """``correct()`` of every sample in ``window``, batched per op."""
        model = self._gbdt_model(op_type) if self.mode == "gbdt" else None
        if model is None:
            factor = self.correction(op_type)
            return [s.predicted_us * factor for s in window]
        featured = [s.features for s in window if s.features]
        log_corrs = iter(model.predict(np.asarray(featured, dtype=float)).tolist())
        return [
            self._apply_log_correction(s.predicted_us, next(log_corrs))
            if s.features
            else s.predicted_us * self.correction(op_type)
            for s in window
        ]

    def fingerprint(self) -> str:
        """Content hash of the current corrections (plan-cache key input)."""
        payload = json.dumps(
            {op: round(c, 12) for op, c in self.corrections().items()}, sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "window": self.window,
            "min_samples": self.min_samples,
            "mode": self.mode,
            "min_fit_samples": self.min_fit_samples,
            "clip": self.clip,
            "total_samples": self.total_samples,
            "samples": {
                op: [
                    {**s.to_dict(), "iteration": it, "active_predicted_us": active}
                    for s, it, active in self._stamped(op)
                ]
                for op in sorted(self._samples)
            },
        }

    def load_state(self, state: dict) -> None:
        self.window = int(state.get("window", self.window))
        self.min_samples = int(state.get("min_samples", self.min_samples))
        self.mode = state.get("mode", self.mode)
        self.min_fit_samples = int(state.get("min_fit_samples", self.min_fit_samples))
        self.clip = float(state.get("clip", self.clip))
        self.total_samples = int(state.get("total_samples", 0))
        self._samples = {
            op: deque(
                (CalibrationSample.from_dict(s) for s in samples), maxlen=self.window
            )
            for op, samples in state.get("samples", {}).items()
        }
        self._iterations = {
            op: deque((s.iteration for s in window), maxlen=self.window)
            for op, window in self._samples.items()
        }
        self._actives = {
            op: deque((s.active_predicted_us for s in window), maxlen=self.window)
            for op, window in self._samples.items()
        }
        self._sorted = {}
        self._gbdt = {}
        self._gbdt_stale = set(self._samples)
        self._corrections = {}


# ----------------------------------------------------------------------
# Calibrated predictor
# ----------------------------------------------------------------------


class CalibratedPredictor:
    """The latency predictor with the online residual correction applied.

    Wraps either a fitted :class:`repro.core.PreprocessingLatencyPredictor`
    or the oracle fallback (``base=None``: the kernel's own modeled
    latency, mirroring :meth:`repro.core.CoRunningCostModel.kernel_latency`).
    Duck-types the predictor protocol (``predict_kernel`` /
    ``predict_total`` / ``is_fitted``) so it drops into the cost model,
    the scheduler, and the mapper unchanged.
    """

    def __init__(self, base, residual: ResidualModel) -> None:
        self.base = base
        self.residual = residual

    @property
    def is_fitted(self) -> bool:
        # Corrections apply even in oracle mode; the wrapper is "fitted"
        # as soon as it exists so the cost model routes through it.
        return True

    def base_prediction(self, kernel) -> float:
        if self.base is not None and getattr(self.base, "is_fitted", False):
            return self.base.predict_kernel(kernel)
        return kernel.duration_us

    def predict_kernel(self, kernel) -> float:
        features = ()
        if self.residual.mode == "gbdt":
            from ..core.latency_predictor import kernel_features

            features = kernel_features(kernel)
        return self.residual.correct(kernel.tag, self.base_prediction(kernel), features)

    def predict_total(self, kernels) -> float:
        return sum(self.predict_kernel(k) for k in kernels)

    def fingerprint(self) -> str:
        """Cache-key contribution: base identity plus current corrections."""
        base_token = "oracle"
        if self.base is not None:
            base_fp = getattr(self.base, "fingerprint", None)
            base_token = base_fp() if callable(base_fp) else repr(type(self.base).__name__)
        return f"calibrated:{base_token}:{self.residual.fingerprint()}"


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DriftEvent:
    """One edge-triggered detection of sustained cost-model drift."""

    iteration: int
    mean_residual: float
    worst_op_type: str
    worst_residual: float

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "mean_residual": self.mean_residual,
            "worst_op_type": self.worst_op_type,
            "worst_residual": self.worst_residual,
        }


@dataclass
class DriftDetector:
    """Sustained-|residual| detector over per-iteration aggregates.

    Each iteration contributes the *worst per-op-type* mean absolute
    relative residual of its kernel samples -- per-op, not the all-sample
    mean, because one drifted op among many healthy ones would otherwise
    be diluted below any usable threshold. When every entry of the last
    ``window`` iterations exceeds ``threshold`` -- a sustained breach, not
    a spike -- the detector fires once (edge-triggered) and stays quiet
    until the signal drops below threshold and re-arms. The runtime treats
    a firing as a watchdog event: recalibrate, then replan.
    """

    threshold: float = 0.25
    window: int = 3
    _history: deque = field(default_factory=deque, repr=False)
    _armed: bool = field(default=True, repr=False)
    _per_op_last: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    def observe_iteration(
        self, iteration: int, samples: list[CalibrationSample] | DriftErrors
    ) -> DriftEvent | None:
        """Feed one iteration's samples, or what recording them returned;
        maybe raise the drift event. An iteration without samples is a
        no-op."""
        if not isinstance(samples, DriftErrors):
            samples = DriftErrors.of(samples)
        per_op, mean_residual = samples.drift
        if not per_op:
            return None
        self._per_op_last = dict(per_op)
        signal = max(self._per_op_last.values())
        self._history.append(signal)
        while len(self._history) > self.window:
            self._history.popleft()

        sustained = (
            len(self._history) == self.window
            and min(self._history) > self.threshold
        )
        if not sustained:
            if signal <= self.threshold:
                self._armed = True
            return None
        if not self._armed:
            return None
        self._armed = False
        worst_op, worst = max(self._per_op_last.items(), key=lambda kv: kv[1])
        return DriftEvent(
            iteration=iteration,
            mean_residual=mean_residual,
            worst_op_type=worst_op,
            worst_residual=worst,
        )

    def reset(self) -> None:
        self._history.clear()
        self._per_op_last = {}
        self._armed = True

    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "history": list(self._history),
            "armed": self._armed,
            "per_op_last": dict(self._per_op_last),
        }

    def load_state(self, state: dict) -> None:
        self._history = deque(float(v) for v in state.get("history", ()))
        self._armed = bool(state.get("armed", True))
        self._per_op_last = {
            str(k): float(v) for k, v in state.get("per_op_last", {}).items()
        }
