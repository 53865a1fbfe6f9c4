"""Tests for the §10 hybrid CPU+GPU preprocessing extension."""

import pytest

from repro.core.hybrid import HybridPlanner
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import DENSE_CONSUMER, build_plan


@pytest.fixture(scope="module")
def plan3_workload():
    graphs, schema = build_plan(3, rows=4096)
    model = model_for_plan(graphs, schema)
    return graphs, TrainingWorkload(model, num_gpus=2, local_batch=4096)


class TestHybridSplit:
    def test_rejects_bad_fill(self, plan3_workload):
        _, workload = plan3_workload
        with pytest.raises(ValueError):
            HybridPlanner(workload, capacity_fill=0.0)

    def test_everything_fits_when_capacity_is_plentiful(self):
        graphs, schema = build_plan(0, rows=1024)
        workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=4, local_batch=1024)
        split = HybridPlanner(workload).split(graphs)
        assert split.num_cpu_features == 0
        assert len(split.gpu_graphs) == len(graphs)

    def test_overload_spills_to_cpu(self, plan3_workload):
        graphs, workload = plan3_workload
        planner = HybridPlanner(workload, capacity_fill=0.05)
        split = planner.split(graphs)
        assert split.num_cpu_features > 0
        assert len(split.gpu_graphs) + split.num_cpu_features == len(graphs)

    def test_dense_graphs_never_leave_gpu(self, plan3_workload):
        graphs, workload = plan3_workload
        split = HybridPlanner(workload, capacity_fill=0.03).split(graphs)
        for graph in split.cpu_graphs:
            assert graph.consumer != DENSE_CONSUMER

    def test_gpu_side_prefers_cpu_hostile_graphs(self, plan3_workload):
        """Feature-generation (Ngram) graphs stay on the GPU first."""
        graphs, workload = plan3_workload
        split = HybridPlanner(workload, capacity_fill=0.05).split(graphs)
        gpu_names = {g.name for g in split.gpu_graphs}
        ngram_graphs = [g.name for g in graphs if g.name.startswith("g_ngram")]
        kept = sum(1 for n in ngram_graphs if n in gpu_names)
        assert kept >= len(ngram_graphs) * 0.8

    def test_budget_respected(self, plan3_workload):
        graphs, workload = plan3_workload
        planner = HybridPlanner(workload, capacity_fill=0.05)
        split = planner.split(graphs)
        assert split.gpu_latency_us <= split.capacity_budget_us * 1.001


class TestHybridReport:
    def test_full_pipeline(self, plan3_workload):
        graphs, workload = plan3_workload
        report = HybridPlanner(workload, capacity_fill=0.05).plan_and_evaluate(graphs)
        assert report.iteration_us >= report.rap_report.iteration_us
        assert report.throughput > 0

    def test_no_cpu_part_means_no_cpu_time(self):
        graphs, schema = build_plan(0, rows=1024)
        workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=4, local_batch=1024)
        report = HybridPlanner(workload).plan_and_evaluate(graphs)
        assert report.cpu_production_us == 0.0

    def test_hybrid_beats_pure_cpu_for_heavy_plans(self, plan3_workload):
        """Even a constrained hybrid beats sending everything to the CPU."""
        from repro.baselines import run_torcharrow_baseline

        graphs, workload = plan3_workload
        hybrid = HybridPlanner(workload, capacity_fill=0.05).plan_and_evaluate(graphs)
        pure_cpu = run_torcharrow_baseline(graphs, workload)
        assert hybrid.throughput > pure_cpu.throughput
