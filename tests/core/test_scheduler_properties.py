"""Property tests for the Algorithm-1 scheduler over random workloads.

The scheduler's contract, fuzzed:

1. **Contention-free**: a schedule never slows simulated training beyond a
   small tolerance -- the one thing RAP must never do.
2. **Work conservation**: every queued kernel's work is either placed or
   trailing; warps are conserved under fusion-degree reduction/sharding.
3. **Never worse than fully exposed**: co-running with the schedule never
   exceeds (training + all preprocessing serialized).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.capacity import OverlappingCapacityEstimator
from repro.core.cost_model import CoRunningCostModel
from repro.core.fusion import HorizontalFusionPass
from repro.core.scheduler import ResourceAwareScheduler
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.gpusim import GpuDevice
from repro.preprocessing import RandomPlanConfig, generate_random_plan


@pytest.fixture(scope="module")
def machinery():
    cost_model = CoRunningCostModel(OverlappingCapacityEstimator())
    return (
        HorizontalFusionPass(),
        ResourceAwareScheduler(cost_model),
        GpuDevice(),
    )


def _setup(seed: int, rows: int = 2048):
    cfg = RandomPlanConfig(
        num_dense=3, num_sparse=6, num_ngram_graphs=2, max_chain=4, seed=seed
    )
    graphs, schema = generate_random_plan(cfg, rows=rows)
    model = model_for_plan(graphs, schema)
    workload = TrainingWorkload(model, num_gpus=2, local_batch=rows)
    return graphs, workload


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_schedule_never_slows_training(machinery, seed):
    fusion, scheduler, device = machinery
    graphs, workload = _setup(seed)
    stages = workload.stages_for_gpu(0)
    plan = fusion.run(list(graphs), graphs.rows)
    schedule = scheduler.schedule(stages, plan.kernels)
    result = device.simulate_iteration(
        stages, assignments=schedule.assignments, trailing_kernels=schedule.trailing
    )
    standalone = sum(s.duration_us for s in stages)
    assert result.training_time_us <= standalone * 1.02


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_schedule_work_conservation(machinery, seed):
    fusion, scheduler, _ = machinery
    graphs, workload = _setup(seed)
    stages = workload.stages_for_gpu(0)
    plan = fusion.run(list(graphs), graphs.rows)
    schedule = scheduler.schedule(stages, plan.kernels)
    queued_warps = sum(k.num_warps for k in plan.kernels)
    placed_warps = sum(k.num_warps for ks in schedule.assignments.values() for k in ks)
    trailing_warps = sum(k.num_warps for k in schedule.trailing)
    # Rounding in sharding may drift by a few warps per shard.
    assert placed_warps + trailing_warps == pytest.approx(queued_warps, rel=0.02)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_schedule_never_worse_than_sequential(machinery, seed):
    fusion, scheduler, device = machinery
    graphs, workload = _setup(seed)
    stages = workload.stages_for_gpu(0)
    plan = fusion.run(list(graphs), graphs.rows)
    schedule = scheduler.schedule(stages, plan.kernels)
    co_run = device.simulate_iteration(
        stages, assignments=schedule.assignments, trailing_kernels=schedule.trailing
    )
    sequential = sum(s.duration_us for s in stages) + plan.total_latency_us
    assert co_run.total_time_us <= sequential * 1.05


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_cost_model_tracks_simulation(machinery, seed):
    """The predicted exposure never understates the simulated slowdown by
    much: cost-model optimism would let contention through."""
    fusion, scheduler, device = machinery
    graphs, workload = _setup(seed)
    stages = workload.stages_for_gpu(0)
    plan = fusion.run(list(graphs), graphs.rows)
    schedule = scheduler.schedule(stages, plan.kernels)
    result = device.simulate_iteration(
        stages, assignments=schedule.assignments, trailing_kernels=schedule.trailing
    )
    standalone = sum(s.duration_us for s in stages)
    simulated_overhead = result.total_time_us - standalone
    predicted_overhead = schedule.exposed_us
    assert simulated_overhead <= predicted_overhead + standalone * 0.05
