"""TelemetrySession: aggregation, artifacts, and checkpoint state."""

import json
from dataclasses import replace

import pytest

from repro.telemetry import (
    CalibratedPredictor,
    CalibrationSample,
    JsonlMetricsSink,
    SampleBatch,
    TelemetrySession,
    parse_prometheus_text,
    validate_chrome_trace,
)


def stamped(batch, iteration):
    """``batch``'s samples as recorded at ``iteration``, in recording order."""
    return [replace(t, iteration=iteration) for t in batch.templates]


def feed(session, op="Clamp", factor=2.0, n=16, iteration=0):
    for i in range(n):
        session.record_kernel_samples(
            (CalibrationSample(op, 100.0, 100.0 * factor, iteration=iteration, stage=i),)
        )


class TestSessionRecording:
    def test_kernel_samples_feed_residual_and_metrics(self):
        session = TelemetrySession()
        feed(session, n=16)
        assert session.residual.total_samples == 16
        text = session.prometheus_text()
        parsed = parse_prometheus_text(text)
        assert "rap_calibration_samples_total" in parsed
        assert "rap_kernel_observed_us" in parsed
        corr = {
            labels["op"]: value
            for labels, value in parsed["rap_calibration_correction"]["samples"]
        }
        assert corr["Clamp"] == pytest.approx(2.0)

    def test_record_iteration_counts_and_traces(self):
        session = TelemetrySession()
        session.record_iteration(0, 1500.0, 120.0)
        session.record_iteration(1, 1600.0, 90.0)
        parsed = parse_prometheus_text(session.prometheus_text())
        _, total = parsed["rap_iterations_total"]["samples"][0]
        assert total == 2.0
        names = {e["name"] for e in session.tracer.events}
        assert "iteration 0" in names and "iteration 1" in names

    def test_check_drift_fires_and_counts(self):
        session = TelemetrySession()
        for i in range(3):
            feed(session, n=4, iteration=i)
            event = session.check_drift(i)
        assert event is not None
        assert session.drift_events == [event]
        parsed = parse_prometheus_text(session.prometheus_text())
        _, fired = parsed["rap_drift_events_total"]["samples"][0]
        assert fired == 1.0

    def test_check_drift_consumes_iteration_samples(self):
        session = TelemetrySession()
        feed(session, n=4)
        session.check_drift(0)
        # Second check sees no fresh samples: detector history untouched.
        assert session.check_drift(1) is None
        assert session.drift_detector.state_dict()["history"] == [1.0]

    def test_note_replan(self):
        session = TelemetrySession()
        session.note_replan(5, "drift", plan_epoch=2)
        parsed = parse_prometheus_text(session.prometheus_text())
        labels, count = parsed["rap_replans_total"]["samples"][0]
        assert labels == {"reason": "drift"} and count == 1.0
        _, epoch = parsed["rap_plan_epoch"]["samples"][0]
        assert epoch == 2.0

    def test_mape_properties(self):
        session = TelemetrySession()
        feed(session, factor=2.0, n=16)
        assert session.predictor_mape == pytest.approx(0.5)
        assert session.calibrated_mape == pytest.approx(0.0)


def mixed_templates():
    """Interleaved op types, one observation on a histogram bucket bound,
    and errors whose overall mean depends on the order they are summed in
    (grouped per op type, it differs in the last bit)."""
    rows = [
        ("Clamp", 80.0, 100.0),
        ("Clamp", 134.7, 143.0),
        ("Logit", 75.5, 766.1),
        ("SigridHash", 94.9, 500.5),
        ("SigridHash", 71.0, 385.8),
        ("Logit", 133.6, 38.1),
        ("Logit", 126.7, 611.4),
        ("SigridHash", 122.2, 450.9),
    ]
    return [
        CalibrationSample(op, predicted, observed, stage=i, features=(float(i), 1.0))
        for i, (op, predicted, observed) in enumerate(rows)
    ]


class TestBatchRecording:
    """Recording a batch is recording its samples one at a time."""

    def replay(self, directory, record):
        session = TelemetrySession(metrics_dir=directory)
        events = []
        for i in range(6):
            record(session, i)
            events.append(session.check_drift(i))
            session.flush(step=i)
        return session, events

    def assert_same(self, tmp_path, record_a, record_b):
        a, events_a = self.replay(tmp_path / "a", record_a)
        b, events_b = self.replay(tmp_path / "b", record_b)
        assert events_a == events_b
        assert json.dumps(a.state_dict()) == json.dumps(b.state_dict())
        for name in ("metrics.prom", "metrics.jsonl"):
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
        return events_a

    def test_batch_equals_its_samples(self, tmp_path):
        batch = SampleBatch(mixed_templates())

        def one_at_a_time(session, i):
            for sample in stamped(batch, i):
                session.record_kernel_samples((sample,))

        events = self.assert_same(
            tmp_path, one_at_a_time, lambda session, i: session.record_batch(batch, i)
        )
        assert sum(e is not None for e in events) == 1

    def test_batches_mixed_with_samples_in_one_iteration(self, tmp_path):
        """Several records before one drift check are judged as one stream."""
        first = SampleBatch(mixed_templates()[:3])
        second = SampleBatch(mixed_templates()[3:])

        def one_at_a_time(session, i):
            session.record_kernel_samples(stamped(first, i) + stamped(second, i))

        def mixed(session, i):
            if i % 3 == 0:
                session.record_batch(first, i)
                session.record_batch(second, i)
            elif i % 3 == 1:
                session.record_batch(first, i)
                session.record_kernel_samples(stamped(second, i))
            else:
                session.record_kernel_samples(stamped(first, i))
                session.record_batch(second, i)

        self.assert_same(tmp_path, one_at_a_time, mixed)

    def test_empty_batch_records_nothing(self):
        session = TelemetrySession()
        feed(session, n=4)
        session.check_drift(0)
        state, text = session.state_dict(), session.prometheus_text()
        session.record_batch(SampleBatch([]), 1)
        assert session.check_drift(1) is None
        assert session.state_dict() == state
        assert session.prometheus_text() == text


class TestCalibratedPredictorHandle:
    def test_wraps_base_once(self):
        session = TelemetrySession()
        wrapped = session.calibrated_predictor(None)
        assert isinstance(wrapped, CalibratedPredictor)
        rewrapped = session.calibrated_predictor(wrapped)
        assert rewrapped.base is None  # never stacks corrections
        assert rewrapped.residual is session.residual


class TestArtifacts:
    def test_write_artifacts_produces_valid_files(self, tmp_path):
        session = TelemetrySession(metrics_dir=tmp_path)
        feed(session, n=8)
        session.record_iteration(0, 1500.0, 120.0)
        paths = session.write_artifacts(step=0)
        parsed = parse_prometheus_text(paths["prometheus"].read_text())
        assert "rap_iteration_latency_us" in parsed
        validate_chrome_trace(json.loads(paths["trace"].read_text()))
        assert JsonlMetricsSink.read(paths["jsonl"])

    def test_no_metrics_dir_no_artifacts(self):
        session = TelemetrySession()
        assert session.write_artifacts() == {}
        session.flush()  # must not raise

    def test_summary_mentions_corrections(self):
        session = TelemetrySession()
        feed(session, factor=2.5, n=16)
        text = "\n".join(session.summary_lines())
        assert "Clamp=2.500" in text
        assert "calibration samples: 16" in text


class TestSessionState:
    def test_state_round_trip(self):
        a = TelemetrySession()
        for i in range(3):
            feed(a, n=4, iteration=i)
            a.check_drift(i)
        a.record_iteration(0, 1500.0, 100.0)
        b = TelemetrySession()
        b.load_state(a.state_dict())
        assert b.state_dict() == a.state_dict()
        assert b.residual.corrections() == a.residual.corrections()
        assert len(b.drift_events) == len(a.drift_events)
