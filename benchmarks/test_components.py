"""Micro-benchmarks for RAP's planning components.

These time the pieces a production deployment cares about -- the offline
search must stay "a few minutes" (§10's regeneration argument), and here
it is fractions of a second per plan.
"""

import pytest

from repro.core import (
    HorizontalFusionPass,
    OverlappingCapacityEstimator,
    CoRunningCostModel,
    RapPlanner,
    ResourceAwareScheduler,
)
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.milp import FusionInstance, solve_fusion
from repro.preprocessing import SyntheticCriteoDataset, build_plan, execute_graph_set


@pytest.fixture(scope="module")
def plan2():
    return build_plan(2, rows=4096)


@pytest.fixture(scope="module")
def plan3():
    return build_plan(3, rows=4096)


def test_bench_fusion_heuristic_plan3(benchmark, plan3):
    """Heuristic fusion planning over the 1548-op Plan 3."""
    graphs, _ = plan3

    def run():
        # A fresh pass per round: a reused one would return its run memo.
        return HorizontalFusionPass().run(list(graphs), rows=4096)

    plan = benchmark(run)
    assert plan.max_fusion_degree >= 32


def test_bench_fusion_milp_small(benchmark):
    """Exact MILP fusion on a conflict-heavy 12-op instance."""
    inst = FusionInstance(
        op_types=["A", "B", "A", "B", "B", "A", "A", "B", "A", "B", "B", "A"],
        deps=[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)],
    )

    def run():
        return solve_fusion(inst, exact=True)

    assignment = benchmark(run)
    assert assignment.fused_pair_count() >= solve_fusion(inst, exact=False).fused_pair_count()


def test_bench_scheduler_plan2(benchmark, plan2):
    """Algorithm-1 scheduling of Plan 2's fused kernel queue."""
    graphs, schema = plan2
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=4, local_batch=4096)
    kernels = HorizontalFusionPass().run(list(graphs), rows=4096).kernels
    cost_model = CoRunningCostModel(OverlappingCapacityEstimator())
    scheduler = ResourceAwareScheduler(cost_model)
    stages = workload.stages_for_gpu(0)

    schedule = benchmark(scheduler.schedule, stages, kernels)
    assert schedule.num_assigned > 0


def test_bench_full_planner_plan3(benchmark, plan3):
    """End-to-end RAP planning (mapping + fusion + scheduling), Plan 3, 8 GPUs."""
    graphs, schema = plan3
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=8, local_batch=4096)

    def run():
        return RapPlanner(workload).plan(graphs)

    plan = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sum(plan.num_kernels_per_gpu()) > 0


def test_bench_functional_execution_plan1(benchmark):
    """Numpy execution of Plan 1's 104 operators on a 4096-row batch."""
    graphs, schema = build_plan(1, rows=4096)
    dataset = SyntheticCriteoDataset(schema, seed=1)
    batch = dataset.batch(4096)

    out = benchmark(execute_graph_set, graphs, batch)
    assert out.size == 4096


def test_bench_corun_simulation(benchmark, plan2):
    """One simulated co-running iteration of Plan 2 on 4 GPUs."""
    graphs, schema = plan2
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=4, local_batch=4096)
    plan = RapPlanner(workload).plan(graphs)

    def run():
        return workload.simulate(
            assignments_per_gpu=plan.assignments_per_gpu,
            trailing_per_gpu=plan.trailing_per_gpu,
            input_comm_bytes=plan.input_comm_bytes,
        )

    result = benchmark(run)
    assert result.iteration_time_us > 0
