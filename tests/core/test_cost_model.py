"""Unit tests for the co-running cost model (§5.3)."""

import pytest

from repro.core.capacity import OverlappingCapacityEstimator
from repro.core.cost_model import CoRunCost, CoRunningCostModel, StageCost
from repro.gpusim.device import StageProfile
from repro.gpusim.kernel import KernelDesc
from repro.gpusim.resources import ResourceVector


@pytest.fixture
def cost_model():
    return CoRunningCostModel(OverlappingCapacityEstimator())


def stage(name="s", duration=1000.0, sm=0.2, dram=0.3):
    return StageProfile(name, duration, ResourceVector(sm, dram))


def kernel(duration=100.0, name="k"):
    return KernelDesc(name, duration, ResourceVector(0.2, 0.2), tag="FillNull")


class TestStageCost:
    def test_exposed_positive_delta(self):
        c = StageCost("s", 0, capacity_us=100.0, assigned_latency_us=150.0)
        assert c.exposed_us == pytest.approx(50.0)

    def test_negative_delta_clamped(self):
        c = StageCost("s", 0, capacity_us=100.0, assigned_latency_us=60.0)
        assert c.exposed_us == 0.0


class TestCoRunCost:
    def test_totals(self):
        cost = CoRunCost(
            stage_costs=[
                StageCost("a", 0, 100.0, 150.0),
                StageCost("b", 1, 200.0, 100.0),
            ],
            trailing_latency_us=30.0,
        )
        assert cost.exposed_us == pytest.approx(80.0)
        assert cost.total_capacity_us == pytest.approx(300.0)
        assert not cost.is_contention_free

    def test_contention_free(self):
        cost = CoRunCost(stage_costs=[StageCost("a", 0, 100.0, 50.0)])
        assert cost.is_contention_free


class TestCoRunningCostModel:
    def test_oracle_latency_without_predictor(self, cost_model):
        k = kernel(duration=123.0)
        assert cost_model.kernel_latency(k) == 123.0

    def test_evaluate_l_delta_formula(self, cost_model):
        """The Fig.-6 cost: L_delta = sum(l_i) - C_op per stage."""
        s = stage(duration=1000.0, sm=0.2, dram=0.3)  # probe fits: capacity = 1000
        ks = [kernel(400.0, "k1"), kernel(700.0, "k2")]
        cost = cost_model.evaluate([s], {0: ks})
        assert cost.stage_costs[0].capacity_us == pytest.approx(1000.0)
        assert cost.stage_costs[0].assigned_latency_us == pytest.approx(1100.0)
        assert cost.exposed_us == pytest.approx(100.0)

    def test_trailing_fully_exposed(self, cost_model):
        cost = cost_model.evaluate([stage()], {}, trailing=[kernel(250.0)])
        assert cost.exposed_us == pytest.approx(250.0)

    def test_empty_schedule_zero_cost(self, cost_model):
        cost = cost_model.evaluate([stage()], {})
        assert cost.exposed_us == 0.0
        assert cost.is_contention_free

    def test_predicted_cost_matches_simulation(self, cost_model):
        """Cost-model L_delta agrees with the simulator for fitting kernels."""
        s = stage(duration=800.0, sm=0.3, dram=0.4)
        ks = [kernel(300.0, "k1"), kernel(900.0, "k2")]  # total 1200 vs cap 800
        cost = cost_model.evaluate([s], {0: ks})
        sim = cost_model.estimator.device.simulate_iteration([s], assignments={0: ks})
        predicted_total = s.duration_us + cost.exposed_us
        assert sim.total_time_us == pytest.approx(predicted_total, rel=0.01)
