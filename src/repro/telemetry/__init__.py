"""Telemetry subsystem: metrics, tracing, and online cost-model calibration.

Three concerns, one package:

- **Metrics** (:mod:`.registry`, :mod:`.exposition`): a process-local
  registry of counters/gauges/histograms with JSONL and Prometheus text
  exposition, written through the crash-safe :mod:`repro.ioutil` writers.
- **Tracing** (:mod:`.chrome`, :mod:`.spans`): span-based tracing on the
  simulated clock, unified with the gpusim Chrome-trace export through a
  single event-construction path, plus a strict trace validator.
- **Calibration** (:mod:`.calibration`, :mod:`.session`): the online loop
  closing RAP's cost model against observed latencies -- residual
  recording, a :class:`CalibratedPredictor` wrapper, and a drift detector
  whose firing triggers a recalibrated replan in the runtime.
"""

from .calibration import (
    CalibratedPredictor,
    CalibrationSample,
    DriftDetector,
    DriftErrors,
    DriftEvent,
    LatencyDrift,
    ResidualModel,
    SampleBatch,
    drift_factors_at,
)
from .chrome import (
    ChromeTraceError,
    counter_event,
    duration_event,
    instant_event,
    metadata_event,
    process_metadata_events,
    trace_document,
    trace_json,
    validate_chrome_trace,
)
from .exposition import (
    JsonlMetricsSink,
    PrometheusParseError,
    parse_prometheus_text,
    to_prometheus_text,
    write_prometheus,
)
from .registry import (
    DEFAULT_LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from .session import TelemetrySession
from .spans import RUNTIME_PID, RUNTIME_TID, Tracer, iteration_span_events

__all__ = [
    "CalibratedPredictor",
    "CalibrationSample",
    "ChromeTraceError",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_US",
    "DriftDetector",
    "DriftErrors",
    "DriftEvent",
    "Gauge",
    "Histogram",
    "JsonlMetricsSink",
    "LatencyDrift",
    "MetricsRegistry",
    "PrometheusParseError",
    "ResidualModel",
    "RUNTIME_PID",
    "RUNTIME_TID",
    "SampleBatch",
    "TelemetrySession",
    "Tracer",
    "counter_event",
    "drift_factors_at",
    "duration_event",
    "instant_event",
    "iteration_span_events",
    "metadata_event",
    "metric_key",
    "parse_prometheus_text",
    "process_metadata_events",
    "to_prometheus_text",
    "trace_document",
    "trace_json",
    "validate_chrome_trace",
    "write_prometheus",
]
