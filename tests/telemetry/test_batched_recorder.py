"""A calibrated batch recorded in one pass per op type is the per-sample path.

The runtime records a calibrated iteration as one :class:`SampleBatch`, and
:meth:`ResidualModel.record` prices each sample from its op type's window as
it appends it. The reference here is the per-sample path it replaced: each
sample priced through :meth:`ResidualModel.correct` (what
:class:`CalibratedPredictor` prices a kernel at) only after every earlier
sample was recorded, then recorded through
:meth:`TelemetrySession.record_kernel_samples`. Both must leave the same
windows, iterations, active prices, corrections, drift events, histograms
and checkpoint state.
"""

import json
import math
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    CalibrationSample,
    DriftDetector,
    ResidualModel,
    SampleBatch,
    TelemetrySession,
)

OPS = ("Clamp", "Logit", "SigridHash")
# Both clip bounds are crossed for any clip up to 32: x100 and x0.01.
FACTORS = (1.0, 1.6, 0.7, 3.0, 100.0, 0.01)


@dataclass(frozen=True)
class Setting:
    window: int = 256
    min_samples: int = 8
    clip: float = 32.0
    mode: str = "quantile"
    min_fit_samples: int = 64

    def session(self) -> TelemetrySession:
        return TelemetrySession(
            residual=ResidualModel(
                window=self.window,
                min_samples=self.min_samples,
                mode=self.mode,
                min_fit_samples=self.min_fit_samples,
                clip=self.clip,
            ),
            drift_detector=DriftDetector(threshold=0.2, window=2),
        )


def reference_record(session: TelemetrySession, batch: SampleBatch, iteration, calibrated):
    """The per-sample path: a lazy stream the session draws one sample at a
    time, each priced after every earlier one reached the residual model."""
    model = session.residual

    def priced():
        for t in batch:
            if not calibrated:
                yield replace(t, iteration=iteration)
                continue
            features = t.features if model.mode == "gbdt" else ()
            active = model.correct(t.op_type, t.predicted_us, features)
            yield replace(
                t,
                iteration=iteration,
                active_predicted_us=active if active != t.predicted_us else None,
            )

    session.record_kernel_samples(priced())


def replay(setting: Setting, batches, schedule):
    """Run ``schedule`` -- per iteration, the ``(batch index, calibrated)``
    recordings made before its drift check -- through the batched recorder
    and the reference; assert they agree after every iteration. Returns
    the batched session."""
    batched, reference = setting.session(), setting.session()
    for iteration, recordings in enumerate(schedule):
        for index, calibrated in recordings:
            batched.record_batch(batches[index], iteration, calibrated=calibrated)
            reference_record(reference, batches[index], iteration, calibrated)
        assert batched.check_drift(iteration) == reference.check_drift(iteration)
        assert_same(batched, reference)
    return batched


def assert_same(batched: TelemetrySession, reference: TelemetrySession) -> None:
    a, b = batched.residual, reference.residual
    assert a.op_types() == b.op_types()
    for op in a.op_types():
        assert a.samples_for(op) == b.samples_for(op)
    assert json.dumps(batched.state_dict()) == json.dumps(reference.state_dict())
    assert a.corrections() == b.corrections()
    assert batched.drift_events == reference.drift_events
    assert batched.prometheus_text() == reference.prometheus_text()


def template(op, predicted, factor, stage=0, features=(1.0, 2.0)):
    return CalibrationSample(op, predicted, predicted * factor, stage=stage, features=features)


samples_st = st.builds(
    template,
    st.sampled_from(OPS),
    st.floats(1.0, 200.0),
    st.one_of(st.sampled_from(FACTORS), st.floats(0.05, 20.0)),
    st.integers(-1, 3),
    st.one_of(st.just(()), st.tuples(st.sampled_from((0.0, 1.0, 2.0)), st.just(1.0))),
)


@st.composite
def scenarios(draw, modes):
    setting = Setting(
        window=draw(st.integers(1, 12)),
        min_samples=draw(st.integers(1, 8)),
        clip=draw(st.sampled_from((1.5, 4.0, 32.0))),
        mode=draw(st.sampled_from(modes)),
        min_fit_samples=draw(st.integers(2, 6)),
    )
    batches = [
        SampleBatch(draw(st.lists(samples_st, max_size=10)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    recording = st.tuples(st.integers(0, len(batches) - 1), st.booleans())
    schedule = draw(st.lists(st.lists(recording, max_size=2), min_size=1, max_size=8))
    return setting, batches, schedule


@settings(max_examples=200, deadline=None)
@given(scenarios(("quantile",)))
def test_quantile_recorder_matches_per_sample_path(scenario):
    replay(*scenario)


@settings(max_examples=20, deadline=None)
@given(scenarios(("gbdt",)))
def test_gbdt_recorder_matches_per_sample_path(scenario):
    replay(*scenario)


# ----------------------------------------------------------------------
# The edges, each shown to be reached


def steady(batch_index=0, iterations=6, calibrated=True):
    return [[(batch_index, calibrated)] for _ in range(iterations)]


def test_window_shorter_than_one_iteration():
    batch = SampleBatch(template("Clamp", 50.0 + i, FACTORS[i % 4]) for i in range(7))
    session = replay(Setting(window=3, min_samples=2), [batch], steady())
    assert len(session.residual.samples_for("Clamp")) == 3


def test_min_samples_crossed_mid_iteration():
    batch = SampleBatch(template(op, 40.0, 2.0) for op in ("Logit", "Clamp") * 4)
    session = replay(Setting(min_samples=3), [batch], steady(iterations=2))
    first = session.residual.samples_for("Logit")[:4]
    # The first three are priced at the base price, the fourth corrected.
    assert [s.active_predicted_us for s in first] == [None, None, None, 80.0]


@pytest.mark.parametrize("factor, bound", [(100.0, 1.5), (0.01, 1 / 1.5)])
def test_clip_bounds(factor, bound):
    batch = SampleBatch(template("SigridHash", 20.0, factor) for _ in range(4))
    session = replay(Setting(min_samples=2, clip=1.5), [batch], steady(iterations=3))
    assert session.residual.correction("SigridHash") == bound
    actives = {s.active_predicted_us for s in session.residual.samples_for("SigridHash")}
    assert 20.0 * bound in actives


def test_two_recordings_before_one_drift_check():
    first = SampleBatch([template("Clamp", 80.0, 1.6), template("Logit", 75.5, 10.1)])
    second = SampleBatch([template("Logit", 133.6, 0.3), template("SigridHash", 94.9, 5.3)])
    schedule = [[(0, True), (1, True)], [(0, True), (1, False)], [(1, False), (0, True)]] * 3
    session = replay(Setting(min_samples=2), [first, second], schedule)
    assert session.drift_events


def test_gbdt_mode_fits_mid_iteration():
    batch = SampleBatch(
        template("Clamp", 30.0, 1.5 + i % 3, features=(float(i % 3), 1.0)) for i in range(6)
    )
    setting = Setting(window=8, min_samples=2, mode="gbdt", min_fit_samples=4)
    session = replay(setting, [batch], steady(iterations=3))
    actives = [s.active_predicted_us for s in session.residual.samples_for("Clamp")]
    # Fitted corrections differ from the median's once the model exists.
    assert len({a for a in actives if a is not None}) > 1
    assert all(math.isfinite(a) for a in actives if a is not None)
