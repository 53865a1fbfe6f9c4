"""Residual model, calibrated predictor, drift schedule, drift detector."""

import hashlib
import json
import math
import random
from dataclasses import replace

import pytest

from repro.telemetry import (
    CalibratedPredictor,
    CalibrationSample,
    DriftDetector,
    LatencyDrift,
    ResidualModel,
    SampleBatch,
    TelemetrySession,
    drift_factors_at,
)


def samples(op, factor, n=16, base=100.0, start_iter=0):
    return [
        CalibrationSample(
            op_type=op,
            predicted_us=base,
            observed_us=base * factor,
            iteration=start_iter + i,
        )
        for i in range(n)
    ]


class TestCalibrationSample:
    def test_log_ratio_uses_base_prediction(self):
        s = CalibrationSample("Clamp", predicted_us=100.0, observed_us=250.0)
        assert s.log_ratio == pytest.approx(math.log(2.5))

    def test_drift_error_uses_active_prediction(self):
        # Base says 100, the corrected (active) model says 250, observed 250:
        # residual learning still sees the 2.5x gap, drift detection sees none.
        s = CalibrationSample(
            "Clamp", predicted_us=100.0, observed_us=250.0, active_predicted_us=250.0
        )
        assert s.log_ratio == pytest.approx(math.log(2.5))
        assert s.abs_relative_error == pytest.approx(0.0)

    def test_dict_round_trip(self):
        s = CalibrationSample(
            "Logit", 10.0, 12.0, iteration=4, stage=1, features=(1.0, 2.0),
            active_predicted_us=11.0,
        )
        assert CalibrationSample.from_dict(s.to_dict()) == s


class TestLatencyDrift:
    def test_window_semantics(self):
        d = LatencyDrift("Clamp", 2.0, start_iteration=3, end_iteration=6)
        assert [d.active_at(i) for i in range(2, 7)] == [False, True, True, True, False]

    def test_open_ended(self):
        d = LatencyDrift("Clamp", 2.0, start_iteration=3)
        assert d.active_at(10_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyDrift("Clamp", 0.0)
        with pytest.raises(ValueError):
            LatencyDrift("Clamp", 2.0, start_iteration=5, end_iteration=5)

    def test_factors_compose(self):
        schedule = [
            LatencyDrift("Clamp", 2.0),
            LatencyDrift("Clamp", 3.0),
            LatencyDrift("Logit", 4.0, start_iteration=10),
        ]
        assert drift_factors_at(schedule, 0) == {"Clamp": 6.0}
        assert drift_factors_at(schedule, 10) == {"Clamp": 6.0, "Logit": 4.0}

    def test_identity_factors_dropped(self):
        schedule = [LatencyDrift("Clamp", 2.0), LatencyDrift("Clamp", 0.5)]
        assert drift_factors_at(schedule, 0) == {}

    def test_dict_round_trip(self):
        d = LatencyDrift("FillNull", 1.5, start_iteration=2, end_iteration=9)
        assert LatencyDrift.from_dict(d.to_dict()) == d


class TestResidualModel:
    def test_needs_min_samples(self):
        model = ResidualModel(min_samples=8)
        for s in samples("Clamp", 2.0, n=7):
            model.record(s)
        assert model.correction("Clamp") == 1.0
        model.record(samples("Clamp", 2.0, n=1)[0])
        assert model.correction("Clamp") == pytest.approx(2.0)

    def test_constant_factor_recovered_exactly(self):
        model = ResidualModel()
        for s in samples("Clamp", 2.5, n=32):
            model.record(s)
        assert model.correction("Clamp") == pytest.approx(2.5)
        assert model.correct("Clamp", 100.0) == pytest.approx(250.0)

    def test_median_robust_to_outliers(self):
        model = ResidualModel()
        for s in samples("Clamp", 2.0, n=31):
            model.record(s)
        model.record(CalibrationSample("Clamp", 100.0, 100_000.0))
        assert model.correction("Clamp") == pytest.approx(2.0)

    def test_unknown_op_untouched(self):
        model = ResidualModel()
        assert model.correction("Ngram") == 1.0
        assert model.correct("Ngram", 42.0) == 42.0

    def test_correction_clipped(self):
        model = ResidualModel(clip=4.0)
        for s in samples("Clamp", 1000.0, n=16):
            model.record(s)
        assert model.correction("Clamp") == 4.0

    def test_window_forgets_old_regime(self):
        model = ResidualModel(window=16)
        for s in samples("Clamp", 2.0, n=16):
            model.record(s)
        for s in samples("Clamp", 1.0, n=16):
            model.record(s)
        assert model.correction("Clamp") == pytest.approx(1.0)

    def test_mape_improves_with_correction(self):
        model = ResidualModel()
        for s in samples("Clamp", 2.0, n=16):
            model.record(s)
        raw = model.mean_absolute_percentage_error(corrected=False)
        corrected = model.mean_absolute_percentage_error(corrected=True)
        assert raw == pytest.approx(0.5)
        assert corrected == pytest.approx(0.0)

    def test_fingerprint_tracks_corrections(self):
        a, b = ResidualModel(), ResidualModel()
        assert a.fingerprint() == b.fingerprint()
        for s in samples("Clamp", 2.0, n=16):
            a.record(s)
        assert a.fingerprint() != b.fingerprint()

    def test_state_round_trip(self):
        a = ResidualModel(window=32)
        for s in samples("Clamp", 2.0, n=16) + samples("Logit", 0.5, n=16):
            a.record(s)
        b = ResidualModel()
        b.load_state(a.state_dict())
        assert b.corrections() == a.corrections()
        assert b.state_dict() == a.state_dict()

    def test_state_writes_constant_mode_keys(self):
        # Checkpoints written while a second residual mode existed carry
        # "mode" and "min_fit_samples"; a round trip still writes both.
        a = ResidualModel(window=32)
        for s in samples("Clamp", 2.0, n=16):
            a.record(s)
        state = json.loads(json.dumps(a.state_dict()))
        assert state["mode"] == "quantile"
        assert state["min_fit_samples"] == 64
        b = ResidualModel()
        b.load_state(state)
        assert b.state_dict() == a.state_dict()

    def test_load_state_refuses_gbdt_mode(self):
        a = ResidualModel()
        for s in samples("Clamp", 2.0, n=16):
            a.record(s)
        state = {**a.state_dict(), "mode": "gbdt"}
        b = ResidualModel()
        with pytest.raises(ValueError, match="gbdt"):
            b.load_state(state)
        assert b.op_types() == []

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ResidualModel(window=0)
        with pytest.raises(ValueError):
            ResidualModel(clip=1.0)


class FakeKernel:
    def __init__(self, tag, duration_us):
        self.tag = tag
        self.duration_us = duration_us
        self.num_warps = 32
        self.meta = {}


class TestCalibratedPredictor:
    def test_oracle_base_applies_correction(self):
        residual = ResidualModel()
        for s in samples("Clamp", 2.0, n=16):
            residual.record(s)
        predictor = CalibratedPredictor(None, residual)
        assert predictor.is_fitted
        k = FakeKernel("Clamp", 100.0)
        assert predictor.base_prediction(k) == 100.0
        assert predictor.predict_kernel(k) == pytest.approx(200.0)
        assert predictor.predict_total([k, k]) == pytest.approx(400.0)

    def test_fingerprint_changes_with_corrections(self):
        residual = ResidualModel()
        predictor = CalibratedPredictor(None, residual)
        before = predictor.fingerprint()
        for s in samples("Clamp", 2.0, n=16):
            residual.record(s)
        assert predictor.fingerprint() != before
        assert predictor.fingerprint().startswith("calibrated:oracle:")


class TestDriftDetector:
    def test_fires_only_after_sustained_window(self):
        det = DriftDetector(threshold=0.25, window=3)
        events = [
            det.observe_iteration(i, samples("Clamp", 2.0, n=4, start_iter=i))
            for i in range(3)
        ]
        assert events[0] is None and events[1] is None
        assert events[2] is not None
        assert events[2].worst_op_type == "Clamp"
        assert events[2].iteration == 2

    def test_spike_does_not_fire(self):
        det = DriftDetector(threshold=0.25, window=3)
        assert det.observe_iteration(0, samples("Clamp", 2.0, n=4)) is None
        assert det.observe_iteration(1, samples("Clamp", 1.0, n=4)) is None
        assert det.observe_iteration(2, samples("Clamp", 2.0, n=4)) is None

    def test_edge_triggered_until_rearmed(self):
        det = DriftDetector(threshold=0.25, window=2)
        det.observe_iteration(0, samples("Clamp", 2.0, n=4))
        assert det.observe_iteration(1, samples("Clamp", 2.0, n=4)) is not None
        # Still drifting: no second event while breached.
        assert det.observe_iteration(2, samples("Clamp", 2.0, n=4)) is None
        # Signal recovers (correction landed), then drifts again: re-fires.
        det.observe_iteration(3, samples("Clamp", 1.0, n=4))
        det.observe_iteration(4, samples("Clamp", 2.0, n=4))
        assert det.observe_iteration(5, samples("Clamp", 2.0, n=4)) is not None

    def test_single_drifted_op_not_diluted(self):
        det = DriftDetector(threshold=0.25, window=1)
        mixed = samples("Clamp", 2.0, n=2) + samples("Logit", 1.0, n=20)
        event = det.observe_iteration(0, mixed)
        assert event is not None
        assert event.worst_op_type == "Clamp"

    def test_active_prediction_quiets_detector(self):
        det = DriftDetector(threshold=0.25, window=1)
        corrected = [
            CalibrationSample(
                "Clamp", 100.0, 250.0, iteration=0, active_predicted_us=250.0
            )
            for _ in range(4)
        ]
        assert det.observe_iteration(0, corrected) is None

    def test_reset_rearms_and_clears_history(self):
        det = DriftDetector(threshold=0.25, window=2)
        det.observe_iteration(0, samples("Clamp", 2.0, n=4))
        det.observe_iteration(1, samples("Clamp", 2.0, n=4))
        det.reset()
        assert det.observe_iteration(2, samples("Clamp", 2.0, n=4)) is None

    def test_state_round_trip(self):
        a = DriftDetector(threshold=0.25, window=3)
        a.observe_iteration(0, samples("Clamp", 2.0, n=4))
        b = DriftDetector(threshold=0.25, window=3)
        b.load_state(a.state_dict())
        assert b.state_dict() == a.state_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftDetector(threshold=0.0)
        with pytest.raises(ValueError):
            DriftDetector(window=0)


class TestDriftDetectorRearmEdges:
    """Re-arm boundary behavior: the edge trigger must survive restarts
    and refuse to re-fire until the signal genuinely recovers."""

    def test_signal_exactly_at_threshold_rearms(self):
        # Sustained breach requires strictly > threshold; a signal that
        # lands exactly on the threshold both breaks the window and
        # re-arms the trigger.
        det = DriftDetector(threshold=0.25, window=2)
        det.observe_iteration(0, samples("Clamp", 2.0, n=4))
        assert det.observe_iteration(1, samples("Clamp", 2.0, n=4)) is not None
        det.observe_iteration(2, samples("Clamp", 1.25, n=4))  # error == 0.25
        det.observe_iteration(3, samples("Clamp", 2.0, n=4))
        assert det.observe_iteration(4, samples("Clamp", 2.0, n=4)) is not None

    def test_empty_iteration_is_a_no_op(self):
        # An iteration with no kernel samples must neither break the
        # sustained window nor count toward it.
        det = DriftDetector(threshold=0.25, window=2)
        det.observe_iteration(0, samples("Clamp", 2.0, n=4))
        assert det.observe_iteration(1, []) is None
        assert det.observe_iteration(2, samples("Clamp", 2.0, n=4)) is not None

    def test_rearm_needs_full_window_again(self):
        # After recovery the detector is armed, but one fresh breach is a
        # spike, not sustained drift: the full window must refill first.
        det = DriftDetector(threshold=0.25, window=2)
        det.observe_iteration(0, samples("Clamp", 2.0, n=4))
        assert det.observe_iteration(1, samples("Clamp", 2.0, n=4)) is not None
        det.observe_iteration(2, samples("Clamp", 1.0, n=4))
        assert det.observe_iteration(3, samples("Clamp", 2.0, n=4)) is None
        assert det.observe_iteration(4, samples("Clamp", 2.0, n=4)) is not None

    def test_restored_detector_does_not_refire(self):
        # A checkpoint taken mid-breach (after the edge fired) must not
        # spuriously re-trigger when the restored process keeps seeing
        # the same drifted costs.
        fired = DriftDetector(threshold=0.25, window=2)
        fired.observe_iteration(0, samples("Clamp", 2.0, n=4))
        assert fired.observe_iteration(1, samples("Clamp", 2.0, n=4)) is not None

        restored = DriftDetector(threshold=0.25, window=2)
        restored.load_state(fired.state_dict())
        assert restored.observe_iteration(2, samples("Clamp", 2.0, n=4)) is None
        assert restored.observe_iteration(3, samples("Clamp", 2.0, n=4)) is None
        # ...but a genuine recover-then-drift cycle still fires.
        restored.observe_iteration(4, samples("Clamp", 1.0, n=4))
        restored.observe_iteration(5, samples("Clamp", 2.0, n=4))
        assert restored.observe_iteration(6, samples("Clamp", 2.0, n=4)) is not None

    def test_restored_partial_window_still_counts(self):
        # Breach history accumulated before the kill counts toward the
        # sustained window after restore: restart must not grant the
        # drifted plan a grace period.
        before = DriftDetector(threshold=0.25, window=3)
        before.observe_iteration(0, samples("Clamp", 2.0, n=4))
        before.observe_iteration(1, samples("Clamp", 2.0, n=4))

        after = DriftDetector(threshold=0.25, window=3)
        after.load_state(before.state_dict())
        assert after.observe_iteration(2, samples("Clamp", 2.0, n=4)) is not None


class TestFingerprintRestoreStability:
    """Fingerprints are plan-cache key inputs: a restored session must
    produce bit-identical fingerprints or every resume misses the cache."""

    def test_residual_fingerprint_survives_round_trip(self):
        model = ResidualModel()
        for s in samples("Clamp", 2.0, n=16) + samples("Logit", 1.3, n=16):
            model.record(s)
        restored = ResidualModel()
        restored.load_state(model.state_dict())
        assert restored.fingerprint() == model.fingerprint()

    def test_fingerprint_is_content_addressed(self):
        # Two independently-built models with the same samples agree:
        # the fingerprint hashes corrections, not object identity.
        a, b = ResidualModel(), ResidualModel()
        for s in samples("Clamp", 1.7, n=16):
            a.record(s)
            b.record(s)
        assert a.fingerprint() == b.fingerprint()

    def test_calibrated_fingerprint_survives_session_restore(self):
        session = TelemetrySession()
        for s in samples("Clamp", 2.0, n=16):
            session.record_kernel_samples((s,))
        session.check_drift(0)
        before = session.calibrated_predictor(None).fingerprint()

        restored = TelemetrySession()
        restored.load_state(session.state_dict())
        assert restored.calibrated_predictor(None).fingerprint() == before
        assert restored.drift_detector.state_dict() == session.drift_detector.state_dict()

    def test_fingerprint_tracks_new_samples_after_restore(self):
        session = TelemetrySession()
        for s in samples("Clamp", 2.0, n=16):
            session.record_kernel_samples((s,))
        restored = TelemetrySession()
        restored.load_state(session.state_dict())
        before = restored.calibrated_predictor(None).fingerprint()
        for s in samples("Clamp", 3.0, n=16, start_iter=16):
            restored.record_kernel_samples((s,))
        assert restored.calibrated_predictor(None).fingerprint() != before


class ReferenceResidual:
    """The residual formulas as they stood before memoization, evaluated
    from scratch on every read over independently kept windows."""

    def __init__(self, model: ResidualModel) -> None:
        self.model = model
        self.windows: dict[str, list[CalibrationSample]] = {}

    def record(self, sample: CalibrationSample) -> None:
        window = self.windows.setdefault(sample.op_type, [])
        window.append(sample)
        del window[: -self.model.window]

    def reload(self) -> None:
        # A state_dict stores the windows in sorted op order.
        self.windows = {op: self.windows[op] for op in sorted(self.windows)}

    @staticmethod
    def log_ratio(s: CalibrationSample) -> float:
        return math.log(max(s.observed_us, 1e-9) / max(s.predicted_us, 1e-9))

    def correction(self, op_type: str) -> float:
        window = self.windows.get(op_type, [])
        if len(window) < self.model.min_samples:
            return 1.0
        log_ratios = sorted(self.log_ratio(s) for s in window)
        n = len(log_ratios)
        mid = n // 2
        median = log_ratios[mid] if n % 2 else 0.5 * (log_ratios[mid - 1] + log_ratios[mid])
        clip = self.model.clip
        return float(min(clip, max(1.0 / clip, math.exp(median))))

    def corrections(self) -> dict[str, float]:
        return {op: self.correction(op) for op in sorted(self.windows)}

    def correct(self, op_type: str, predicted_us: float) -> float:
        return predicted_us * self.correction(op_type)

    def mape(self, corrected: bool) -> float:
        errors = []
        for op_type, window in self.windows.items():
            for s in window:
                pred = self.correct(op_type, s.predicted_us) if corrected else s.predicted_us
                errors.append(abs(s.observed_us - pred) / max(s.observed_us, 1e-9))
        return float(sum(errors) / len(errors)) if errors else 0.0

    def fingerprint(self) -> str:
        payload = json.dumps(
            {op: round(c, 12) for op, c in self.corrections().items()}, sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


class TestIncrementalEquivalence:
    """Memoized corrections, cached log-ratios, the incrementally sorted
    window and batch records are bit-identical to the from-scratch formulas
    over per-sample windows, under any interleaving of writes and reads."""

    OPS = ("Clamp", "Logit", "SigridHash")

    def random_sample(self, rng: random.Random) -> CalibrationSample:
        predicted = rng.uniform(1.0, 200.0)
        factor = rng.choice([1.0, 1.6, rng.lognormvariate(0.0, 0.5), 100.0])
        features = (
            tuple(float(rng.randint(0, 3)) for _ in range(3))
            if rng.random() < 0.8
            else ()
        )
        return CalibrationSample(
            rng.choice(self.OPS), predicted, predicted * factor, features=features
        )

    def read(self, rng: random.Random, model: ResidualModel, ref: ReferenceResidual):
        query = rng.randrange(8)
        op = rng.choice(self.OPS + ("Unseen",))
        if query == 0:
            assert model.correction(op) == ref.correction(op)
        elif query == 1:
            assert model.corrections() == ref.corrections()
        elif query == 2:
            assert model.fingerprint() == ref.fingerprint()
        elif query == 3:
            assert model.mean_absolute_percentage_error() == ref.mape(False)
        elif query == 4:
            assert model.mean_absolute_percentage_error(corrected=True) == ref.mape(True)
        elif query == 5:
            assert model.samples_for(op) == ref.windows.get(op, [])
        elif query == 6:
            assert model.state_dict()["samples"] == {
                op: [s.to_dict() for s in window] for op, window in sorted(ref.windows.items())
            }
        else:
            s = self.random_sample(rng)
            assert model.correct(op, s.predicted_us) == ref.correct(op, s.predicted_us)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleavings_match_reference(self, seed):
        rng = random.Random(seed)
        model = ResidualModel(window=8, min_samples=3)
        ref = ReferenceResidual(model)
        snapshots = []
        batches = []
        for iteration in range(300):
            action = rng.random()
            if action < 0.35:
                sample = replace(self.random_sample(rng), iteration=iteration)
                model.record(sample)
                ref.record(sample)
            elif action < 0.6:
                # A batch (sometimes empty, sometimes larger than the
                # window), new or one recorded before at another iteration.
                if batches and rng.random() < 0.5:
                    batch = rng.choice(batches)
                else:
                    batch = SampleBatch(self.random_sample(rng) for _ in range(rng.randrange(12)))
                    batches.append(batch)
                model.record(batch, iteration)
                for t in batch:
                    ref.record(replace(t, iteration=iteration))
            elif action < 0.7:
                windows = {op: list(w) for op, w in ref.windows.items()}
                snapshots.append((model.state_dict(), windows))
                kind = rng.randrange(3)
                if kind == 0:  # reload in place
                    model.load_state(snapshots[-1][0])
                elif kind == 1:  # JSON round trip into a fresh model
                    model = ResidualModel()
                    model.load_state(json.loads(json.dumps(snapshots[-1][0])))
                    ref.model = model
                else:  # rewind in place to an earlier state
                    state, windows = rng.choice(snapshots)
                    model.load_state(state)
                    ref.windows = {op: list(w) for op, w in windows.items()}
                ref.reload()
            else:
                self.read(rng, model, ref)
        assert {op: model.samples_for(op) for op in model.op_types()} == ref.windows
        assert model.state_dict()["samples"] == {
            op: [s.to_dict() for s in window] for op, window in sorted(ref.windows.items())
        }
        assert model.corrections() == ref.corrections()
        assert model.fingerprint() == ref.fingerprint()
        assert model.mean_absolute_percentage_error() == ref.mape(False)
        assert model.mean_absolute_percentage_error(corrected=True) == ref.mape(True)
        for op in self.OPS:
            for s in model.samples_for(op):
                assert model.correct(op, s.predicted_us) == ref.correct(op, s.predicted_us)

    @pytest.mark.parametrize("batched", [False, True])
    def test_sorted_window_tracks_ties_and_evictions(self, batched):
        """Once read, the sorted log-ratio window is updated per sample; ties
        and evictions (a batch longer than the window included) must leave
        it equal to a fresh sort of the window."""
        model = ResidualModel(window=5, min_samples=1)
        ref = ReferenceResidual(model)
        factors = [2.0, 0.5, 2.0, 2.0, 1.0, 0.5, 3.0, 2.0, 2.0, 0.25, 1.0, 1.0, 2.0]
        first = CalibrationSample("Clamp", 10.0, 20.0)
        model.record(first)
        ref.record(first)
        assert model.correction("Clamp") == ref.correction("Clamp") == 2.0
        samples = [CalibrationSample("Clamp", 10.0, 10.0 * f) for f in factors]
        size = 7 if batched else 1
        for i in range(0, len(samples), size):
            chunk = samples[i : i + size]
            if batched:
                model.record(SampleBatch(chunk), i)
            else:
                model.record(replace(chunk[0], iteration=i))
            for s in chunk:
                ref.record(replace(s, iteration=i))
            assert model.correction("Clamp") == ref.correction("Clamp")
            assert model.samples_for("Clamp") == ref.windows["Clamp"]
