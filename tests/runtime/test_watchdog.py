"""Tests for the edge-triggered latency watchdog."""

import pytest

from repro.runtime import LatencyWatchdog


class TestValidation:
    def test_rejects_bad_error_threshold(self):
        with pytest.raises(ValueError):
            LatencyWatchdog(error_threshold=0.0)

    def test_rejects_bad_fault_rate_threshold(self):
        with pytest.raises(ValueError):
            LatencyWatchdog(fault_rate_threshold=-1.0)


class TestTrigger:
    def test_accurate_plan_never_fires(self):
        dog = LatencyWatchdog(error_threshold=0.5)
        for _ in range(10):
            assert not dog.observe(100.0, 104.0).replan

    def test_fires_on_sustained_error(self):
        dog = LatencyWatchdog(error_threshold=0.5)
        fired = [dog.observe(100.0, 400.0).replan for _ in range(6)]
        assert fired[0]

    def test_fires_once_per_crossing(self):
        """A sustained breach produces exactly one replan until it clears."""
        dog = LatencyWatchdog(error_threshold=0.5)
        fired = [dog.observe(100.0, 400.0).replan for _ in range(5)]
        assert fired == [True, False, False, False, False]

    def test_rearms_after_signal_clears(self):
        dog = LatencyWatchdog(error_threshold=0.5)
        assert dog.observe(100.0, 400.0).replan
        assert not dog.observe(100.0, 400.0).replan
        # Four accurate iterations flush the four-iteration window: the mean
        # error falls back under the threshold and the trigger re-arms.
        for _ in range(4):
            assert not dog.observe(100.0, 100.0).replan
        assert dog.observe(100.0, 400.0).replan  # second crossing fires again

    def test_fault_rate_trigger(self):
        dog = LatencyWatchdog(error_threshold=10.0, fault_rate_threshold=1.0)
        assert not dog.observe(100.0, 100.0, num_faults=1).replan
        decision = dog.observe(100.0, 100.0, num_faults=3)
        assert decision.replan
        assert "fault rate" in decision.reason

    def test_window_smooths_single_spike(self):
        dog = LatencyWatchdog(error_threshold=0.5)
        for _ in range(3):
            assert not dog.observe(100.0, 100.0).replan
        # One bad iteration against three good ones stays under the mean.
        assert not dog.observe(100.0, 250.0).replan

    def test_reset_rearms_and_clears_window(self):
        dog = LatencyWatchdog(error_threshold=0.5)
        assert dog.observe(100.0, 900.0).replan
        dog.reset()
        assert not dog.observe(100.0, 100.0).replan
        assert dog.observe(100.0, 900.0).replan
