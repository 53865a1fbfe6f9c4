"""TelemetrySession: one handle bundling metrics, tracing, and calibration.

The runtime (and the CLI behind it) talks to telemetry through this single
object: it owns the :class:`repro.telemetry.registry.MetricsRegistry`, the
span :class:`repro.telemetry.spans.Tracer`, the
:class:`repro.telemetry.calibration.ResidualModel`, and the
:class:`repro.telemetry.calibration.DriftDetector`, and knows how to
publish all of them as crash-safe artifacts (``metrics.prom``,
``metrics.jsonl``, ``trace.json``) in a metrics directory.

When telemetry is disabled the runtime simply carries ``telemetry=None``
and never touches any of this -- the zero-cost-when-off contract is "no
object, no calls", not a null-object that still burns cycles.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .calibration import (
    CalibratedPredictor,
    CalibrationSample,
    DriftDetector,
    DriftErrors,
    DriftEvent,
    ResidualModel,
    SampleBatch,
)
from .exposition import JsonlMetricsSink, to_prometheus_text, write_prometheus
from .registry import DEFAULT_LATENCY_BUCKETS_US, Counter, Histogram, MetricsRegistry
from .spans import Tracer

__all__ = ["TelemetrySession"]


class TelemetrySession:
    """Aggregates the telemetry subsystem behind one runtime-facing API."""

    def __init__(
        self,
        metrics_dir: str | Path | None = None,
        residual: ResidualModel | None = None,
        drift_detector: DriftDetector | None = None,
        tenant: str | None = None,
    ) -> None:
        self.metrics_dir = Path(metrics_dir) if metrics_dir is not None else None
        self.tenant = tenant
        self.registry = MetricsRegistry(
            default_labels={"tenant": tenant} if tenant is not None else None
        )
        self.tracer = Tracer()
        self.residual = residual if residual is not None else ResidualModel()
        self.drift_detector = (
            drift_detector if drift_detector is not None else DriftDetector()
        )
        self.drift_events: list[DriftEvent] = []
        # What the next drift check judges: the errors of every recording
        # since the last one, in order.
        self._pending: list[DriftErrors] = []
        # Per-op sample instruments, bound once: op -> (histogram, counter).
        self._kernel_children: dict[str, tuple[Histogram, Counter]] = {}
        self._jsonl: JsonlMetricsSink | None = (
            JsonlMetricsSink(self.metrics_dir / "metrics.jsonl")
            if self.metrics_dir is not None
            else None
        )
        # Instruments shared across the run; per-label children are created
        # lazily at first observation.
        self._iteration_hist = self.registry.histogram(
            "rap_iteration_latency_us",
            help="Simulated end-to-end iteration latency",
            buckets=DEFAULT_LATENCY_BUCKETS_US,
        )
        self._exposed_hist = self.registry.histogram(
            "rap_exposed_preprocessing_us",
            help="Simulated exposed (non-overlapped) preprocessing latency",
            buckets=DEFAULT_LATENCY_BUCKETS_US,
        )
        self._iterations = self.registry.counter(
            "rap_iterations_total", help="Iterations executed"
        )
        self._drift_counter = self.registry.counter(
            "rap_drift_events_total", help="Drift detector firings"
        )

    # ------------------------------------------------------------------
    # Sample recording

    def record_kernel_samples(self, samples: Iterable[CalibrationSample]) -> None:
        """Record one iteration's samples, in order.

        Each sample reaches the residual model before the next one is
        drawn, so a lazy ``samples`` that prices through the residual model
        sees every earlier sample (the per-sample reference that
        ``record_batch(..., calibrated=True)`` is tested against).
        """
        record = self.residual.record
        recorded: list[CalibrationSample] = []
        append = recorded.append
        for sample in samples:
            record(sample)
            append(sample)
            histogram, counter = self._kernel_instruments(sample.op_type)
            histogram.observe(sample.observed_us)
            counter.inc()
        if recorded:
            self._pending.append(DriftErrors.of(recorded))

    def record_batch(self, batch: SampleBatch, iteration: int, calibrated: bool = False) -> None:
        """Record every sample of ``batch`` at ``iteration``; ``calibrated``
        prices each one through the residual model as it is recorded (see
        :meth:`ResidualModel.record`).

        The residual windows, metrics and next drift check end up exactly
        as if the samples had been recorded one at a time, in order. An
        empty batch records nothing.
        """
        if not len(batch):
            return
        self._pending.append(self.residual.record(batch, iteration, calibrated))
        # Every op's histogram is a child of one family, with one set of bounds.
        histogram, _ = self._kernel_instruments(batch.ops[0][0])
        counts = batch.bucket_counts(histogram.buckets)
        for (op_type, _, observed, _), op_counts in zip(batch.ops, counts):
            histogram, counter = self._kernel_instruments(op_type)
            histogram.observe_many(observed, op_counts)
            counter.inc(len(observed))

    def _kernel_instruments(self, op_type: str) -> tuple[Histogram, Counter]:
        """The per-op sample instruments, registered on the op's first sample."""
        bound = self._kernel_children.get(op_type)
        if bound is None:
            bound = self._kernel_children[op_type] = (
                self.registry.histogram(
                    "rap_kernel_observed_us",
                    help="Observed standalone kernel latency by op type",
                    labels={"op": op_type},
                ),
                self.registry.counter(
                    "rap_calibration_samples_total",
                    help="Calibration samples recorded by op type",
                    labels={"op": op_type},
                ),
            )
        return bound

    def record_iteration(
        self,
        iteration: int,
        iteration_us: float,
        exposed_us: float,
        per_gpu_results=(),
        **span_args,
    ) -> None:
        """Record one iteration's aggregates and its trace spans."""
        self._iterations.inc()
        self._iteration_hist.observe(iteration_us)
        self._exposed_hist.observe(exposed_us)
        self.tracer.record_iteration(
            iteration,
            iteration_us,
            per_gpu_results=per_gpu_results,
            exposed_us=exposed_us,
            **span_args,
        )

    def check_drift(self, iteration: int) -> DriftEvent | None:
        """Run the drift detector over this iteration's samples and reset.

        A lone recording (every runtime iteration) hands the detector its
        own errors, whose means an uncalibrated batch computes once;
        several are judged as one stream.
        """
        pending, self._pending = self._pending, []
        errors = pending[0] if len(pending) == 1 else DriftErrors.concat(pending)
        event = self.drift_detector.observe_iteration(iteration, errors)
        if event is not None:
            self.drift_events.append(event)
            self._drift_counter.inc()
            self.tracer.instant(
                f"drift detected ({event.worst_op_type})",
                "calibration",
                mean_residual=event.mean_residual,
                worst_op=event.worst_op_type,
                worst_residual=event.worst_residual,
            )
        return event

    def note_replan(self, iteration: int, reason: str, plan_epoch: int) -> None:
        self.registry.counter(
            "rap_replans_total", help="Replans by trigger", labels={"reason": reason}
        ).inc()
        self.registry.gauge("rap_plan_epoch", help="Current plan epoch").set(plan_epoch)
        self.tracer.instant(f"replan ({reason})", "runtime", plan_epoch=plan_epoch)

    def note_shadow_candidate(self, predicted_win: float, promoted: bool) -> None:
        """Record one shadow candidate evaluation (DESIGN.md §15)."""
        self.registry.counter(
            "rap_shadow_candidates_total",
            help="Shadow candidates evaluated against the replay window",
        ).inc()
        self.registry.gauge(
            "rap_shadow_predicted_win",
            help="Predicted exposed-latency win of the latest shadow candidate",
        ).set(predicted_win)
        if promoted:
            self.registry.counter(
                "rap_shadow_promotions_total",
                help="Shadow candidates promoted to live plan",
            ).inc()
            self.tracer.instant(
                "shadow promotion", "shadow", predicted_win=predicted_win
            )

    def note_shadow_probation(
        self, outcome: str, realized_win: float | None, predicted_win: float | None
    ) -> None:
        """Record how one probation window ended (commit/rollback/abort)."""
        self.registry.counter(
            "rap_shadow_probation_outcomes_total",
            help="Probation outcomes by kind",
            labels={"outcome": outcome},
        ).inc()
        if outcome == "rolled_back":
            self.registry.counter(
                "rap_shadow_rollbacks_total",
                help="Promotions rolled back to their anchor",
            ).inc()
        if realized_win is not None:
            self.registry.gauge(
                "rap_shadow_realized_win",
                help="Realized iteration-latency win of the latest probation",
            ).set(realized_win)
        self.tracer.instant(
            f"probation {outcome}",
            "shadow",
            realized_win=realized_win,
            predicted_win=predicted_win,
        )

    def publish_corrections(self) -> None:
        """Expose the current per-op-type corrections as gauges."""
        for op, correction in self.residual.corrections().items():
            self.registry.gauge(
                "rap_calibration_correction",
                help="Multiplicative latency correction by op type",
                labels={"op": op},
            ).set(correction)

    # ------------------------------------------------------------------
    # Calibration handles

    def calibrated_predictor(self, base) -> CalibratedPredictor:
        """The base predictor wrapped with the current residual model."""
        if isinstance(base, CalibratedPredictor):
            base = base.base  # never stack corrections
        return CalibratedPredictor(base, self.residual)

    @property
    def predictor_mape(self) -> float:
        return self.residual.mean_absolute_percentage_error(corrected=False)

    @property
    def calibrated_mape(self) -> float:
        return self.residual.mean_absolute_percentage_error(corrected=True)

    # ------------------------------------------------------------------
    # Artifacts

    def flush(self, step: int | None = None) -> None:
        """Publish current metrics to the metrics directory (if configured)."""
        if self.metrics_dir is None:
            return
        self.metrics_dir.mkdir(parents=True, exist_ok=True)
        self.publish_corrections()
        write_prometheus(self.metrics_dir / "metrics.prom", self.registry)
        if self._jsonl is not None:
            self._jsonl.flush(self.registry, step=step)

    def write_artifacts(self, step: int | None = None) -> dict[str, Path]:
        """Publish metrics and the Chrome trace; returns the artifact paths."""
        if self.metrics_dir is None:
            return {}
        self.flush(step=step)
        trace_path = self.metrics_dir / "trace.json"
        from ..ioutil import atomic_write_text

        atomic_write_text(trace_path, self.tracer.chrome_trace_chunks())
        return {
            "prometheus": self.metrics_dir / "metrics.prom",
            "jsonl": self.metrics_dir / "metrics.jsonl",
            "trace": trace_path,
        }

    def prometheus_text(self) -> str:
        self.publish_corrections()
        return to_prometheus_text(self.registry)

    def summary_lines(self) -> list[str]:
        """A compact human-readable metrics summary for the CLI exit path."""
        lines = [
            f"iterations: {int(self._iterations.value)}",
            f"calibration samples: {self.residual.total_samples}",
            f"drift events: {len(self.drift_events)}",
        ]
        if self.residual.total_samples:
            lines.append(
                f"predictor MAPE: {self.predictor_mape:.3f} raw"
                f" -> {self.calibrated_mape:.3f} calibrated"
            )
        corrections = {
            op: c for op, c in self.residual.corrections().items() if c != 1.0
        }
        if corrections:
            formatted = ", ".join(f"{op}={c:.3f}" for op, c in sorted(corrections.items()))
            lines.append(f"active corrections: {formatted}")
        if self._iteration_hist.count:
            mean = self._iteration_hist.sum / self._iteration_hist.count
            lines.append(f"mean iteration latency: {mean:.1f} us")
        return lines

    # ------------------------------------------------------------------
    # Checkpointing: calibration state rides inside runtime snapshots so a
    # resumed run replays (and keeps calibrating) bit-identically.

    def state_dict(self) -> dict:
        return {
            "residual": self.residual.state_dict(),
            "drift_detector": self.drift_detector.state_dict(),
            "drift_events": [e.to_dict() for e in self.drift_events],
            "tracer": self.tracer.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self.residual.load_state(state.get("residual", {}))
        self.drift_detector.load_state(state.get("drift_detector", {}))
        self.drift_events = [
            DriftEvent(**e) for e in state.get("drift_events", ())
        ]
        self.tracer.load_state(state.get("tracer", {}))
        self._pending = []
