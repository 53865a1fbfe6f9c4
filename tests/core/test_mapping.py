"""Unit tests for preprocessing-graph mapping (§7.2, Fig. 12)."""

import pytest

from repro.core.capacity import OverlappingCapacityEstimator
from repro.core.cost_model import CoRunningCostModel
from repro.core.fusion import HorizontalFusionPass
from repro.core.mapping import RapMapper, map_data_locality, map_data_parallel
from repro.core.scheduler import ResourceAwareScheduler
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import DENSE_CONSUMER, build_plan, build_skewed_plan


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(1, rows=1024)
    model = model_for_plan(graphs, schema)
    workload = TrainingWorkload(model, num_gpus=4, local_batch=1024)
    return graphs, workload


@pytest.fixture(scope="module")
def mapper(setting):
    _, workload = setting
    cost_model = CoRunningCostModel(OverlappingCapacityEstimator(workload.spec))
    return RapMapper(
        workload,
        cost_model,
        HorizontalFusionPass(workload.spec),
        ResourceAwareScheduler(cost_model),
    )


class TestDataParallelMapping:
    def test_every_graph_everywhere(self, setting):
        graphs, workload = setting
        mapping = map_data_parallel(graphs, workload)
        for graph in graphs:
            assert len(mapping.placements[graph.name]) == workload.num_gpus

    def test_slice_rows(self, setting):
        graphs, workload = setting
        mapping = map_data_parallel(graphs, workload)
        for placements in mapping.placements.values():
            assert all(rows == workload.local_batch for _, rows in placements)

    def test_pays_communication(self, setting):
        graphs, workload = setting
        mapping = map_data_parallel(graphs, workload)
        assert mapping.input_comm_bytes > 0

    def test_balanced_work(self, setting):
        graphs, workload = setting
        mapping = map_data_parallel(graphs, workload)
        loads = [
            sum(g.standalone_latency_us(rows, workload.spec)
                for g, rows in mapping.graphs_on_gpu(graphs, gpu))
            for gpu in range(workload.num_gpus)
        ]
        assert max(loads) == pytest.approx(min(loads), rel=0.01)


class TestDataLocalityMapping:
    def test_zero_communication(self, setting):
        graphs, workload = setting
        mapping = map_data_locality(graphs, workload)
        assert mapping.input_comm_bytes == 0.0

    def test_sparse_graphs_on_table_owner(self, setting):
        graphs, workload = setting
        mapping = map_data_locality(graphs, workload)
        for graph in graphs:
            if graph.consumer == DENSE_CONSUMER:
                continue
            owners = workload.placement.gpus_for_table(graph.consumer)
            placed = [g for g, _ in mapping.placements[graph.name]]
            assert placed == owners

    def test_sparse_rows_are_global_batch(self, setting):
        graphs, workload = setting
        mapping = map_data_locality(graphs, workload)
        for graph in graphs:
            if graph.consumer != DENSE_CONSUMER:
                rows = mapping.placements[graph.name][0][1]
                assert rows == workload.global_batch

    def test_dense_graphs_everywhere_at_local_rows(self, setting):
        graphs, workload = setting
        mapping = map_data_locality(graphs, workload)
        for graph in graphs:
            if graph.consumer == DENSE_CONSUMER:
                placements = mapping.placements[graph.name]
                assert len(placements) == workload.num_gpus
                assert all(rows == workload.local_batch for _, rows in placements)


class TestRapMapper:
    def test_evaluate_produces_per_gpu_schedules(self, setting, mapper):
        graphs, workload = setting
        evaluation = mapper.evaluate(graphs, map_data_locality(graphs, workload))
        assert len(evaluation.schedules) == workload.num_gpus
        assert evaluation.objective_us >= 0.0

    def test_optimize_no_worse_than_data_locality(self, setting, mapper):
        graphs, workload = setting
        dl = mapper.evaluate(graphs, map_data_locality(graphs, workload))
        rap = mapper.optimize(graphs)
        assert rap.objective_us <= dl.objective_us + 1e-6

    def test_skewed_workload_rebalanced(self):
        """Fig. 12: on a skewed plan RAP beats both DP and DL mappings."""
        graphs, schema = build_skewed_plan(rows=1024, num_gpus=4)
        model = model_for_plan(graphs, schema)
        workload = TrainingWorkload(model, num_gpus=4, local_batch=1024)
        cost_model = CoRunningCostModel(OverlappingCapacityEstimator(workload.spec))
        mapper = RapMapper(
            workload,
            cost_model,
            HorizontalFusionPass(workload.spec),
            ResourceAwareScheduler(cost_model),
        )
        dp = mapper.evaluate(graphs, map_data_parallel(graphs, workload))
        dl = mapper.evaluate(graphs, map_data_locality(graphs, workload))
        rap = mapper.optimize(graphs)
        assert rap.objective_us <= dl.objective_us + 1e-6
        assert rap.objective_us <= dp.objective_us + 1e-6

    def test_single_gpu_short_circuits(self):
        graphs, schema = build_plan(0, rows=512)
        model = model_for_plan(graphs, schema)
        workload = TrainingWorkload(model, num_gpus=1, local_batch=512)
        cost_model = CoRunningCostModel(OverlappingCapacityEstimator(workload.spec))
        mapper = RapMapper(
            workload,
            cost_model,
            HorizontalFusionPass(workload.spec),
            ResourceAwareScheduler(cost_model),
        )
        result = mapper.optimize(graphs)
        # Single GPU: the result is the data-locality layout, relabeled.
        assert result.mapping.strategy == "rap"
        assert result.comm_us == 0.0
        for graph in graphs:
            assert result.mapping.placements[graph.name][0][0] == 0
