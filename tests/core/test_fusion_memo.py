"""The fusion pass's price table, lowering and run memos and the
scheduler's fit memo change when a kernel is priced, never what it is.

:class:`~repro.core.fusion.HorizontalFusionPass` prices each operator
configuration once, lowers each (graph, rows) once and fuses each distinct
GPU group once per graph set, and a planner's
:class:`~repro.core.scheduler.ResourceAwareScheduler` fits each kernel into
each leftover once per graph set. These tests pin that plans are
byte-identical to a planner whose tables are cleared before every
lowering, run and fit, that any change to what a lowering reads misses,
that the memos hold one graph set's entries, that a replan on an already
searched set lowers and fuses nothing, and that a fresh planner prices
from scratch.
"""

from collections import Counter

import pytest

import repro.core.fusion as fusion_module
import repro.core.scheduler as scheduler_module
from repro.core import RapPlanner, ResourceAwareScheduler, drift_graph_set
from repro.core.serialization import plan_to_json
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.gpusim.resources import ResourceVector
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
    """``planner`` with its pass's price table, lowering and run memos and
    its scheduler's fit memo cleared before every lowering, every run and
    every fit: each one prices from scratch."""
    fusion, scheduler = planner.fusion, planner.scheduler
    lower, run, fit = fusion.lower, fusion.run, scheduler._fit

    def cleared_lower(graph, rows):
        fusion._prices.clear()
        fusion._lowered.clear()
        return lower(graph, rows)

    def cleared_run(graphs, rows):
        fusion._prices.clear()
        fusion._lowered.clear()
        fusion._runs.clear()
        return run(graphs, rows)

    def cleared_fit(kernel, leftover):
        scheduler.clear_fits()
        return fit(kernel, leftover)

    fusion.lower, fusion.run, scheduler._fit = cleared_lower, cleared_run, cleared_fit
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


def price_keys(fusion) -> set:
    """The distinct operator configurations the pass's lowerings read."""
    return {
        (type(op), op._params_key(), len(op.inputs), rows, avg_list_length)
        for (_, rows), (_, ops, avg_list_length, _) in fusion._lowered.items()
        for op in ops
    }


def test_unfused_plan_prices_each_configuration_once(counts):
    graphs, workload = entry("table3-3")
    planner = RapPlanner(workload, fusion_enabled=False)
    planner.plan(graphs)
    lowered = counts["lowered"]
    assert sum(lowered.values()) == len(price_keys(planner.fusion))
    assert max(lowered.values()) == 1


def test_cold_plan_prices_each_configuration_once(counts):
    graphs, workload = entry("table3-3")
    planner = RapPlanner(workload)
    planner.plan(graphs)
    assert sum(counts["lowered"].values()) == len(price_keys(planner.fusion)) == 24


@pytest.fixture
def derivations(monkeypatch):
    """Counts ``gpu_kernel`` and every ``fuse_kernels`` (the pass's and the
    scheduler's fits) calls."""
    calls = Counter()

    def counting(owner, attr):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    counting(PreprocessingOp, "gpu_kernel")
    counting(fusion_module, "fuse_kernels")
    return calls


@pytest.mark.parametrize("name", ["table3-1", "table3-3", "random-0"])
def test_fresh_planners_price_from_scratch(name, derivations):
    graphs, workload = entry(name)
    per_planner = []
    for _ in range(2):
        derivations.clear()
        RapPlanner(workload).plan(graphs)
        per_planner.append(dict(derivations))
    assert per_planner[0] == per_planner[1]
    assert per_planner[0]["gpu_kernel"] > 0 and per_planner[0]["fuse_kernels"] > 0


def test_search_fits_each_kernel_into_each_leftover_once(monkeypatch):
    graphs, workload = entry("table3-3")
    fitted = Counter()
    fit = scheduler_module.fit_kernel_to_leftover

    def counting_fit(kernel, leftover, *args):
        fitted[(id(kernel), leftover.sm, leftover.dram)] += 1
        return fit(kernel, leftover, *args)

    monkeypatch.setattr(scheduler_module, "fit_kernel_to_leftover", counting_fit)
    planner = RapPlanner(workload)
    plan = planner.plan(graphs)
    assert fitted and max(fitted.values()) == 1
    fitted.clear()
    planner.replan(graphs, previous=plan)
    assert planner.stats.incremental_replans == 1
    assert not fitted


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


class TestFitMemo:
    @pytest.fixture
    def fused(self):
        graphs, workload = entry("table3-3")
        planner = RapPlanner(workload)
        plan = planner.fusion.run(graphs.graphs[:8], BATCH)
        return planner.scheduler, max(plan.kernels, key=lambda k: k.demand.sm + k.demand.dram)

    @staticmethod
    def share(kernel, sm, dram) -> ResourceVector:
        return ResourceVector(kernel.demand.sm * sm, kernel.demand.dram * dram)

    @staticmethod
    def reference(scheduler, kernel, leftover):
        spec = scheduler.cost_model.estimator.spec
        return fusion_module.fit_kernel_to_leftover(kernel, leftover, spec)

    def test_hit_returns_the_same_pieces(self, fused):
        scheduler, kernel = fused
        leftover = self.share(kernel, 1 / 3, 1 / 3)
        first = scheduler._fit(kernel, leftover)
        assert scheduler._fit(kernel, leftover) is first
        assert first == self.reference(scheduler, kernel, leftover)

    @pytest.mark.parametrize("sm, dram", [(1 / 3, 1 / 5), (1 / 5, 1 / 3)])
    def test_each_leftover_component_misses(self, fused, sm, dram):
        scheduler, kernel = fused
        first = scheduler._fit(kernel, self.share(kernel, 1 / 3, 1 / 3))
        leftover = self.share(kernel, sm, dram)
        second = scheduler._fit(kernel, leftover)
        assert second == self.reference(scheduler, kernel, leftover)
        assert second != first

    def test_a_fitting_kernel_is_not_stored(self, fused):
        scheduler, kernel = fused
        assert scheduler._fit(kernel, ResourceVector(1.0, 1.0)) == [kernel]
        assert not scheduler._fits

    def test_a_standalone_scheduler_fits_through_its_memo(self, fused):
        planner_scheduler, kernel = fused
        scheduler = ResourceAwareScheduler(planner_scheduler.cost_model)
        leftover = self.share(kernel, 1 / 3, 1 / 3)
        first = scheduler._fit(kernel, leftover)
        assert scheduler._fit(kernel, leftover) is first
        scheduler.clear_fits()
        assert not scheduler._fits


def test_memos_hold_one_graph_set_over_drift_replans():
    graphs, workload = entry("table3-1")
    planner = RapPlanner(workload)
    plan = planner.plan(graphs)
    fusion = planner.fusion
    lowered_bound, runs_bound = len(fusion._lowered), len(fusion._runs)
    prices_bound = len(fusion._prices)
    assert lowered_bound <= 2 * len(graphs)
    assert prices_bound <= 2 * graphs.total_ops
    for step in range(100):
        live = drift_graph_set(graphs, 1.0 + 0.01 * (step + 1))
        plan = planner.replan(live, previous=plan)
        live_graphs = {id(g) for g in live}
        lowered = {id(e[3]) for e in fusion._lowered.values()}
        assert {id(e[0]) for e in fusion._lowered.values()} <= live_graphs
        assert all(id(t) in lowered for tuples, _ in fusion._runs.values() for t in tuples)
        assert len(fusion._lowered) <= lowered_bound
        assert len(fusion._runs) <= runs_bound
        assert len(fusion._prices) <= prices_bound
        # Every fitted kernel is a live run's kernel or a piece of a fit.
        fittable = {id(k) for _, run in fusion._runs.values() for k in run.kernels}
        fits = planner.scheduler._fits
        fittable |= {id(k) for _, pieces in fits.values() for k in pieces or ()}
        assert all(id(kernel) in fittable for kernel, _ in fits.values())


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
