"""Per-op count pins for a cold plan's search.

- The scheduler fits each distinct kernel content into each leftover at
  most once: no two ``fit_kernel_to_leftover`` calls of a cold plan-3
  search see equal kernels (every field, fused members included) and an
  equal leftover.
- Each (graph, rows) data-preparation term is computed once per graph
  set: a dense graph placed on every GPU is walked once, and a replan on
  the same set walks nothing.
- The local fusion search, which skips ops that cannot move, equals
  ``reference_local_improve`` (every step of every op's window, every
  round) on the instances real plans solve.
- A GPU spec computes its derived values once.

No timing is measured here.
"""

from collections import Counter

import pytest

import repro.core.fusion as fusion_module
import repro.core.scheduler as scheduler_module
import repro.preprocessing.executor as executor_module
from repro.core import RapPlanner
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.gpusim.resources import GPU_PROFILES
from repro.milp.fusion_problem import _local_improve
from repro.preprocessing import build_plan
from repro.preprocessing.random_plans import RandomPlanConfig, generate_random_plan

from .test_search_equivalence import reference_local_improve

BATCH = 4096


def entry(name: str, gpus: int = 4):
    kind, number = name.split("-")
    if kind == "table3":
        graphs, schema = build_plan(int(number), rows=BATCH)
    else:
        graphs, schema = generate_random_plan(RandomPlanConfig(seed=int(number)), rows=BATCH)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=gpus, local_batch=BATCH)
    return graphs, workload


def content(kernel) -> tuple:
    """Every field of a kernel, fused members by their own content."""
    meta = tuple(
        (key, tuple(map(content, value)) if key == "member_kernels"
         else tuple(value) if isinstance(value, list) else value)
        for key, value in kernel.meta.items()
    )
    demand = kernel.demand
    return (kernel.name, kernel.duration_us, demand.sm, demand.dram, kernel.num_warps,
            kernel.tag, kernel.launch_us, kernel.warp_slots, meta)


def test_cold_plan3_fits_each_distinct_kernel_and_leftover_once(monkeypatch):
    graphs, workload = entry("table3-3")
    fitted = Counter()
    fit = scheduler_module.fit_kernel_to_leftover

    def counting_fit(kernel, leftover, *args):
        fitted[(content(kernel), leftover.sm, leftover.dram)] += 1
        return fit(kernel, leftover, *args)

    monkeypatch.setattr(scheduler_module, "fit_kernel_to_leftover", counting_fit)
    RapPlanner(workload).plan(graphs)
    # Equal (name, duration, demand) kernels of this search differ in their
    # members' names, which the fitted pieces carry: 110 distinct fits.
    assert sum(fitted.values()) == len(fitted) == 110


@pytest.mark.parametrize("name", ["table3-0", "table3-3", "random-0", "random-3"])
def test_each_data_prep_term_is_computed_once_per_graph_set(monkeypatch, name):
    graphs, workload = entry(name)
    walked = Counter()
    raw_bytes = executor_module._graph_raw_bytes

    def counting(graph, rows):
        walked[(id(graph), rows)] += 1
        return raw_bytes(graph, rows)

    monkeypatch.setattr(executor_module, "_graph_raw_bytes", counting)
    planner = RapPlanner(workload)
    plan = planner.plan(graphs)
    placed = {
        (id(graph), max(r for _, r in entries))
        for gpu in range(workload.num_gpus)
        if (entries := plan.mapping.graphs_on_gpu(graphs, gpu))
        for graph, _ in entries
    }
    assert set(walked) == placed
    # The dense graphs sit on every GPU at one row count: walked once each.
    assert max(walked.values()) == 1
    walked.clear()
    planner.replan(graphs, previous=plan)
    assert planner.stats.incremental_replans == 1
    assert not walked


def solved_instances(monkeypatch, name):
    graphs, workload = entry(name)
    instances = []
    solve = fusion_module.solve_fusion

    def recording(instance, *args, **kwargs):
        instances.append(instance)
        return solve(instance, *args, **kwargs)

    monkeypatch.setattr(fusion_module, "solve_fusion", recording)
    RapPlanner(workload).plan(graphs)
    return instances


@pytest.mark.parametrize("name", ["table3-3"] + [f"random-{s}" for s in (0, 1, 2, 3, 4, 7, 9)])
def test_local_search_equals_the_full_scan_on_planned_instances(monkeypatch, name):
    instances = solved_instances(monkeypatch, name)
    if name == "table3-3":
        assert len(instances) == 5
    assert instances
    for instance in instances:
        levels = instance.asap_levels()
        assert _local_improve(instance, levels) == reference_local_improve(instance, levels)


@pytest.mark.parametrize("spec", sorted(GPU_PROFILES.values(), key=lambda s: s.name))
def test_spec_derived_values_are_computed_once(spec):
    derived = {
        "total_warp_slots": spec.num_sms * spec.warps_per_sm,
        "dram_bytes_per_us": spec.dram_bw_gbps * 1e9 / 1e6,
    }
    for attribute, formula in derived.items():
        value = getattr(spec, attribute)
        assert value == formula and type(value) is type(formula)
        assert vars(spec)[attribute] is value
        assert getattr(spec, attribute) is value
