"""The fusion pass's lowering and run memos change when a kernel is priced,
never what it is.

:class:`~repro.core.fusion.HorizontalFusionPass` lowers each (graph, rows)
once and fuses each distinct GPU group once per graph set. These tests pin
that plans are byte-identical to a planner whose memos are cleared before
every lowering and every run, that any change to what a lowering reads
misses, that the memos hold one graph set's entries, and that a replan on
an already searched set lowers and fuses nothing.
"""

from collections import Counter

import pytest

import repro.core.fusion as fusion_module
from repro.core import RapPlanner
from repro.core.adaptation import drift_graph_set
from repro.core.serialization import plan_to_json
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.preprocessing.ops import PreprocessingOp
from repro.preprocessing.random_plans import RandomPlanConfig, generate_random_plan

GPUS = 4
BATCH = 4096


def entry(name: str):
    kind, number = name.split("-")
    if kind == "table3":
        graphs, schema = build_plan(int(number), rows=BATCH)
    else:
        graphs, schema = generate_random_plan(RandomPlanConfig(seed=int(number)), rows=BATCH)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=GPUS, local_batch=BATCH)
    return graphs, workload


def unmemoized(planner: RapPlanner) -> RapPlanner:
    """``planner`` with its pass's lowering and run memos cleared before
    every lowering and every run: each one prices from scratch."""
    fusion = planner.fusion
    lower, run = fusion.lower, fusion.run

    def cleared_lower(graph, rows):
        fusion._lowered.clear()
        return lower(graph, rows)

    def cleared_run(graphs, rows):
        fusion._lowered.clear()
        fusion._runs.clear()
        return run(graphs, rows)

    fusion.lower, fusion.run = cleared_lower, cleared_run
    return planner


@pytest.fixture
def counts(monkeypatch):
    """Counts ``gpu_kernel`` calls per (op, rows), and ``fuse_kernels``
    calls made by ``HorizontalFusionPass.run`` (the scheduler's own
    degree reductions are not fusion runs)."""
    calls = {"lowered": Counter(), "fused": 0}
    in_run = [False]
    gpu_kernel = PreprocessingOp.gpu_kernel
    fuse_kernels = fusion_module.fuse_kernels
    run = fusion_module.HorizontalFusionPass.run

    def counting_gpu_kernel(self, rows, *args, **kwargs):
        calls["lowered"][(id(self), rows)] += 1
        return gpu_kernel(self, rows, *args, **kwargs)

    def counting_fuse_kernels(*args, **kwargs):
        calls["fused"] += in_run[0]
        return fuse_kernels(*args, **kwargs)

    def flagged_run(self, *args, **kwargs):
        in_run[0] = True
        try:
            return run(self, *args, **kwargs)
        finally:
            in_run[0] = False

    monkeypatch.setattr(PreprocessingOp, "gpu_kernel", counting_gpu_kernel)
    monkeypatch.setattr(fusion_module, "fuse_kernels", counting_fuse_kernels)
    monkeypatch.setattr(fusion_module.HorizontalFusionPass, "run", flagged_run)
    return calls


@pytest.mark.parametrize(
    "name", [f"table3-{p}" for p in range(4)] + [f"random-{s}" for s in range(10)]
)
def test_plan_matches_unmemoized_reference(name):
    graphs, workload = entry(name)
    plan = RapPlanner(workload).plan(graphs)
    reference = unmemoized(RapPlanner(workload)).plan(graphs)
    assert plan_to_json(plan) == plan_to_json(reference)


@pytest.mark.parametrize("name", ["table3-1", "table3-3", "random-0"])
def test_drift_replan_matches_unmemoized_reference(name):
    graphs, workload = entry(name)
    drifted = drift_graph_set(graphs, 1.5)
    planned = []
    for planner in (RapPlanner(workload), unmemoized(RapPlanner(workload))):
        cold = planner.plan(graphs)
        planned.append(plan_to_json(planner.replan(drifted, previous=cold)))
    assert planned[0] == planned[1]


def test_unfused_plan_matches_unmemoized_reference():
    graphs, workload = entry("table3-3")
    plan = RapPlanner(workload, fusion_enabled=False).plan(graphs)
    reference = unmemoized(RapPlanner(workload, fusion_enabled=False)).plan(graphs)
    assert plan_to_json(plan) == plan_to_json(reference)


def test_unfused_plan_lowers_each_op_once_per_rows(counts):
    graphs, workload = entry("table3-3")
    RapPlanner(workload, fusion_enabled=False).plan(graphs)
    lowered = counts["lowered"]
    assert len(lowered) >= graphs.total_ops
    assert max(lowered.values()) == 1


class TestLoweringMemo:
    @pytest.fixture
    def setting(self):
        graphs, workload = entry("table3-1")
        return graphs, RapPlanner(workload).fusion

    def test_hit_returns_the_same_kernels(self, setting):
        graphs, fusion = setting
        graph = graphs.graphs[0]
        first = fusion.lower(graph, BATCH)
        assert fusion.lower(graph, BATCH) is first
        assert list(first) == graph.kernels(BATCH, fusion.spec)

    def test_changed_list_length_misses(self, setting):
        graphs, fusion = setting
        graph = graphs.graphs[0]
        first = fusion.lower(graph, BATCH)
        graph.avg_list_length *= 1.5
        second = fusion.lower(graph, BATCH)
        assert second is not first
        assert list(second) == graph.kernels(BATCH, fusion.spec)
        assert second[0].duration_us != first[0].duration_us

    def test_replaced_op_list_misses(self, setting):
        graphs, fusion = setting
        graph = graphs.graphs[0]
        first = fusion.lower(graph, BATCH)
        graph.ops = graph.ops[:1]
        second = fusion.lower(graph, BATCH)
        assert len(second) == 1 < len(first)
        assert list(second) == graph.kernels(BATCH, fusion.spec)

    def test_other_rows_miss(self, setting):
        graphs, fusion = setting
        graph = graphs.graphs[0]
        first = fusion.lower(graph, BATCH)
        second = fusion.lower(graph, BATCH // 2)
        assert second is not first
        assert list(second) == graph.kernels(BATCH // 2, fusion.spec)

    def test_run_misses_after_a_lowering_miss(self, setting):
        graphs, fusion = setting
        group = graphs.graphs[:4]
        first = fusion.run(group, BATCH)
        assert fusion.run(group, BATCH) is first
        group[0].avg_list_length *= 1.5
        second = fusion.run(group, BATCH)
        assert second is not first
        assert second.total_latency_us != first.total_latency_us


def test_memos_hold_one_graph_set_over_drift_replans():
    graphs, workload = entry("table3-1")
    planner = RapPlanner(workload)
    plan = planner.plan(graphs)
    fusion = planner.fusion
    lowered_bound, runs_bound = len(fusion._lowered), len(fusion._runs)
    assert lowered_bound <= 2 * len(graphs)
    for step in range(100):
        live = drift_graph_set(graphs, 1.0 + 0.01 * (step + 1))
        plan = planner.replan(live, previous=plan)
        live_graphs = {id(g) for g in live}
        lowered = {id(e[3]) for e in fusion._lowered.values()}
        assert {id(e[0]) for e in fusion._lowered.values()} <= live_graphs
        assert all(id(t) in lowered for tuples, _ in fusion._runs.values() for t in tuples)
        assert len(fusion._lowered) <= lowered_bound
        assert len(fusion._runs) <= runs_bound


@pytest.mark.parametrize("name", ["table3-3", "random-0"])
def test_same_set_replan_lowers_and_fuses_nothing(name, counts):
    graphs, workload = entry(name)
    planner = RapPlanner(workload)
    plan = planner.plan(graphs)
    assert counts["lowered"] and counts["fused"]
    counts["lowered"].clear()
    counts["fused"] = 0
    planner.replan(graphs, previous=plan)
    assert planner.stats.incremental_replans == 1
    assert not counts["lowered"]
    assert counts["fused"] == 0
