"""Unit tests for utilization traces."""

import numpy as np
import pytest

from repro.gpusim.resources import ResourceVector
from repro.gpusim.trace import TraceSegment, UtilizationTrace


def make_trace():
    return UtilizationTrace([
        TraceSegment(0.0, 100.0, ResourceVector(0.8, 0.2), label="mlp"),
        TraceSegment(100.0, 300.0, ResourceVector(0.2, 0.9), label="emb"),
    ])


class TestTraceSegment:
    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            TraceSegment(10.0, 5.0, ResourceVector(0.1, 0.1))

    def test_duration(self):
        assert TraceSegment(2.0, 7.0, ResourceVector(0, 0)).duration == 5.0


class TestUtilizationTrace:
    def test_append_contiguous(self):
        t = make_trace()
        assert len(t.segments) == 2
        assert t.t_start == 0.0
        assert t.t_end == 300.0
        assert t.duration == 300.0

    def test_rejects_overlapping_segment(self):
        t = make_trace()
        with pytest.raises(ValueError):
            t.append(TraceSegment(250.0, 400.0, ResourceVector(0.1, 0.1)))

    def test_gap_is_allowed(self):
        t = make_trace()
        t.append(TraceSegment(350.0, 400.0, ResourceVector(0.5, 0.5)))
        assert t.t_end == 400.0

    def test_zero_duration_segment_skipped(self):
        t = make_trace()
        t.append(TraceSegment(300.0, 300.0, ResourceVector(1.0, 1.0)))
        assert len(t.segments) == 2

    def test_empty_trace(self):
        t = UtilizationTrace()
        assert t.duration == 0.0
        times, sm, dram = t.sample(1.0)
        assert times.size == 0

    def test_sample_values(self):
        t = make_trace()
        times, sm, dram = t.sample(50.0)
        assert len(times) == 6
        np.testing.assert_allclose(sm[:2], 0.8)
        np.testing.assert_allclose(dram[2:], 0.9)

    def test_sample_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            make_trace().sample(0.0)

    def test_mean_utilization_whole(self):
        t = make_trace()
        mean = t.mean_utilization()
        # Time-weighted: (0.8*100 + 0.2*200)/300, (0.2*100 + 0.9*200)/300.
        assert mean.sm == pytest.approx((0.8 * 100 + 0.2 * 200) / 300)
        assert mean.dram == pytest.approx((0.2 * 100 + 0.9 * 200) / 300)

    def test_mean_utilization_window(self):
        t = make_trace()
        mean = t.mean_utilization(0.0, 100.0)
        assert mean.sm == pytest.approx(0.8)

    def test_mean_utilization_degenerate_window(self):
        t = make_trace()
        mean = t.mean_utilization(50.0, 50.0)
        assert mean.sm == 0.0

    def test_segments_are_immutable_tuple(self):
        t = make_trace()
        assert isinstance(t.segments, tuple)
        assert len(t.segments) == 2
