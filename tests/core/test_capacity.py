"""Unit tests for the overlapping capacity estimator (§5.1)."""

import pytest

from repro.core.capacity import OverlappingCapacityEstimator, REFERENCE_PROBE
from repro.gpusim.device import StageProfile
from repro.gpusim.kernel import KernelDesc
from repro.gpusim.resources import ResourceVector


@pytest.fixture
def estimator():
    return OverlappingCapacityEstimator()


class TestAnalyticEstimate:
    def test_roomy_stage_full_capacity(self, estimator):
        stage = StageProfile("comm", 500.0, ResourceVector(0.05, 0.1))
        assert estimator.estimate(stage, REFERENCE_PROBE) == pytest.approx(500.0)

    def test_busy_stage_scaled_capacity(self, estimator):
        stage = StageProfile("mlp", 1000.0, ResourceVector(0.85, 0.3))
        cap = estimator.estimate(stage, REFERENCE_PROBE)
        # SM leftover 0.15 vs probe 0.30 -> admit 0.5.
        assert cap == pytest.approx(500.0)

    def test_saturated_stage_zero_capacity(self, estimator):
        stage = StageProfile("hot", 1000.0, ResourceVector(1.0, 1.0))
        assert estimator.estimate(stage, REFERENCE_PROBE) == pytest.approx(0.0)

    def test_cache_hit(self, estimator):
        stage = StageProfile("mlp", 1000.0, ResourceVector(0.85, 0.3))
        a = estimator.estimate(stage)
        b = estimator.estimate(stage)
        assert a == b
        assert len(estimator._cache) == 1

    def test_profile_stages(self, estimator):
        stages = [
            StageProfile("a", 100.0, ResourceVector(0.1, 0.1)),
            StageProfile("b", 200.0, ResourceVector(0.9, 0.9)),
        ]
        roomy, busy = (estimator.estimate(s) for s in stages)
        assert roomy > busy
        assert roomy == pytest.approx(100.0)

    def test_total_capacity(self, estimator):
        stages = [
            StageProfile("a", 100.0, ResourceVector(0.1, 0.1)),
            StageProfile("b", 200.0, ResourceVector(0.1, 0.1)),
        ]
        # Both stages admit the reference probe fully, so their capacities
        # sum to the stages' total duration.
        capacity = sum(estimator.estimate(s) for s in stages)
        assert capacity == pytest.approx(300.0)


class TestEmpiricalMeasurement:
    def test_measure_agrees_with_estimate_when_probe_fits(self, estimator):
        stage = StageProfile("emb", 800.0, ResourceVector(0.2, 0.5))
        probe = KernelDesc("probe", 100.0, ResourceVector(0.3, 0.3))
        measured = estimator.measure(stage, probe)
        assert measured == pytest.approx(800.0)

    def test_measure_contended_probe_below_duration(self, estimator):
        stage = StageProfile("mlp", 1000.0, ResourceVector(0.85, 0.3))
        probe = KernelDesc("probe", 100.0, ResourceVector(0.6, 0.3))
        measured = estimator.measure(stage, probe)
        assert 0.0 <= measured < 1000.0

    def test_measure_zero_duration_stage(self, estimator):
        stage = StageProfile("empty", 0.0, ResourceVector(0.1, 0.1))
        probe = KernelDesc("probe", 10.0, ResourceVector(0.1, 0.1))
        assert estimator.measure(stage, probe) == 0.0

    def test_latency_abstraction_consistency(self, estimator):
        """Fig. 5a: a fitting kernel of total standalone latency == capacity
        co-runs exactly for free; slightly more spills."""
        stage = StageProfile("emb", 600.0, ResourceVector(0.2, 0.5))
        cap = estimator.estimate(stage, ResourceVector(0.3, 0.3))
        kernel = KernelDesc("k", cap, ResourceVector(0.3, 0.3))
        result = estimator.device.simulate_iteration([stage], assignments={0: [kernel]})
        assert result.total_time_us == pytest.approx(stage.duration_us)
        bigger = KernelDesc("k2", cap * 1.2, ResourceVector(0.3, 0.3))
        result2 = estimator.device.simulate_iteration([stage], assignments={0: [bigger]})
        assert result2.total_time_us > stage.duration_us
