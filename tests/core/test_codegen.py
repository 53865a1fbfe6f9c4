"""Tests that generated plan code executes the same transforms as the planner."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core import codegen
from repro.core.codegen import generate_plan_module, load_plan_module
from repro.core.planner import RapPlanner
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import SyntheticCriteoDataset, build_plan, execute_graph_set


@pytest.fixture(scope="module")
def plan_and_graphs():
    graphs, schema = build_plan(0, rows=256)
    model = model_for_plan(graphs, schema)
    workload = TrainingWorkload(model, num_gpus=2, local_batch=256)
    plan = RapPlanner(workload).plan(graphs)
    return plan, graphs, schema


class TestCodegen:
    def test_source_is_compilable(self, plan_and_graphs):
        plan, _, _ = plan_and_graphs
        source = generate_plan_module(plan)
        compile(source, "<plan>", "exec")

    def test_module_structure(self, plan_and_graphs):
        plan, _, _ = plan_and_graphs
        module = load_plan_module(generate_plan_module(plan))
        assert set(module.SCHEDULE) == {0, 1}
        assert callable(module.run_gpu)
        assert callable(module.run_all)

    def test_each_op_emitted_once_per_gpu(self, plan_and_graphs):
        plan, _, _ = plan_and_graphs
        module = load_plan_module(generate_plan_module(plan))
        for gpu, entries in module.SCHEDULE.items():
            outputs = [e[2] for e in entries]
            assert len(outputs) == len(set(outputs))

    def test_generated_code_matches_direct_execution(self, plan_and_graphs):
        """Running the generated module reproduces the library's outputs."""
        plan, graphs, schema = plan_and_graphs
        module = load_plan_module(generate_plan_module(plan))
        ds = SyntheticCriteoDataset(schema, seed=21)

        batch_direct = ds.batch(256)
        direct = execute_graph_set(graphs, batch_direct)

        # Union of both GPUs' schedules covers every graph (plan 1 maps
        # sparse graphs to single GPUs); execute each against a fresh copy.
        generated = ds.batch(256)
        for gpu in module.SCHEDULE:
            module.run_gpu(gpu, generated)

        for graph in graphs:
            out = graph.output_op.output
            direct_col = direct.column(out)
            gen_col = generated.column(out)
            np.testing.assert_array_equal(np.asarray(direct_col.values), np.asarray(gen_col.values))

    def test_header_mentions_strategy(self, plan_and_graphs):
        plan, _, _ = plan_and_graphs
        source = generate_plan_module(plan)
        assert "Mapping strategy: rap" in source
        assert "fusion enabled" in source


# sha256 of generate_plan_module's text and of the op groups compile_plan
# hands the engine (each group's member outputs, per GPU), for Table-3
# plans on 4 GPUs at batch 1024; "2-trailing" is plan 2 with each GPU's
# last co-run stage moved to its trailing kernels. Plans 2 and 3 hold
# shard siblings, whose member ops are lowered once.
PINNED_WALKS = {
    "0": ("f366c4e483263344aaac52a0607085e3380a148674ffc531104773acafb33f2e",
          "e66d9ec16dcf0a0a3b50729c119ae4b25a0a8c15b8b7010be83e3c52c64d52d3"),
    "1": ("72c477026559cfc88eae9e96fb4582c77c1504a754ca60a3f457c2636ff4b5f3",
          "e66d9ec16dcf0a0a3b50729c119ae4b25a0a8c15b8b7010be83e3c52c64d52d3"),
    "2": ("7207dfb8b2e4b39937d6ac3f8dfc124b6bed56d1e87efd1d32b70167abddede6",
          "8d165aa0de0152f83e1f000f0a51f89da273819062ae16afa467c8e77076bea9"),
    "3": ("e87ac612aba112be92c466ec4a0bea5bc1e4e8530fcd50d5a724acf497d69ad0",
          "3f4d77388774d89209497f5554ad08fa45893daae1a5a376379d7ac12ca8ae4e"),
    "2-trailing": ("ae23e7f20342bd2d37869334329b3af3c205431258c8c041f74c994511d225d4",
                   "8d165aa0de0152f83e1f000f0a51f89da273819062ae16afa467c8e77076bea9"),
}


def _table3_plan(plan_id: int):
    graphs, schema = build_plan(plan_id, rows=1024)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=4, local_batch=1024)
    return RapPlanner(workload).plan(graphs)


def _last_stage_trailing(plan):
    assignments, trailing = [], []
    for per_gpu, tail in zip(plan.assignments_per_gpu, plan.trailing_per_gpu):
        per_gpu = dict(per_gpu)
        moved = per_gpu.pop(max(per_gpu)) if per_gpu else []
        assignments.append(per_gpu)
        trailing.append(list(moved) + list(tail))
    return dataclasses.replace(plan, assignments_per_gpu=assignments, trailing_per_gpu=trailing)


def _lowered_groups(plan, monkeypatch) -> list:
    """The op groups compile_plan lowers, recorded instead of compiled."""
    recorded = []

    def record(groups, rows, arena=None):
        recorded.append([[op.output for op in group] for group in groups])

    monkeypatch.setattr(codegen, "compile_op_groups", record)
    codegen.compile_plan(plan)
    return recorded


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED_WALKS))
def test_plan_walk_is_pinned(key, monkeypatch):
    plan = _table3_plan(int(key[0]))
    if key.endswith("trailing"):
        plan = _last_stage_trailing(plan)
        assert any(plan.trailing_per_gpu)
    module, groups = PINNED_WALKS[key]
    assert _sha(generate_plan_module(plan)) == module
    assert _sha(json.dumps(_lowered_groups(plan, monkeypatch))) == groups
