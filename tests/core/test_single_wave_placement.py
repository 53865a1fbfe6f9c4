"""Every kernel placed in a training stage is single-wave.

Algorithm 1's shard step (§7.1, lines 21-26) is the scheduler's prefix
commit: a stage takes the pieces of a fitted kernel that fit its remaining
capacity, and the rest goes back to the queue. The paper splits a kernel
by latency instead, which shortens a piece only while the kernel spans
more than one wave of the device's warp slots. These checks hold that no
placed kernel does:

- every training stage leaves less than a whole SM free;
- every kernel in a stage has known warp slots and at most that many warps.

They cover cold plans (Table-3 plans 0-3 and random plans 0-9 at 2, 4 and
8 GPUs, fused and unfused), a mixed A100/H100/V100 fleet, a carved tenant
workload, and the stages the runtime leaves after ``latency_overrun`` and
``fused_oom`` recovery.
"""

from functools import lru_cache

import pytest

from repro.core import RapPlanner
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.gpusim import A100_SPEC, H100_SPEC, V100_SPEC
from repro.preprocessing import build_plan
from repro.preprocessing.random_plans import RandomPlanConfig, generate_random_plan
from repro.runtime import FUSED_OOM, LATENCY_OVERRUN, FaultEvent, FaultTolerantRuntime
from repro.service.carve import CarvedTrainingWorkload

BATCH = 4096
ENTRIES = [f"table3-{p}" for p in range(4)] + [f"random-{s}" for s in range(10)]


@lru_cache(maxsize=None)
def entry(name: str):
    kind, number = name.split("-")
    if kind == "table3":
        return build_plan(int(number), rows=BATCH)
    return generate_random_plan(RandomPlanConfig(seed=int(number)), rows=BATCH)


def assert_single_wave(workload, assignments_per_gpu) -> int:
    """Check every stage and every staged kernel; returns the kernel count."""
    placed = 0
    for gpu, assignments in enumerate(assignments_per_gpu):
        stages = workload.stages_for_gpu(gpu)
        for stage in stages:
            assert stage.leftover().sm < 1.0, stage.name
        for stage_idx, kernels in assignments.items():
            for kernel in kernels:
                assert kernel.warp_slots > 0, kernel.name
                assert kernel.num_warps <= kernel.warp_slots, (
                    kernel.name, stages[stage_idx].name, kernel.num_warps, kernel.warp_slots,
                )
            placed += len(kernels)
    return placed


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("gpus", [2, 4, 8])
@pytest.mark.parametrize("name", ENTRIES)
def test_cold_plans_place_single_wave_kernels(name, gpus, fused):
    graphs, schema = entry(name)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=gpus, local_batch=BATCH)
    plan = RapPlanner(workload, fusion_enabled=fused).plan(graphs)
    assert assert_single_wave(workload, plan.assignments_per_gpu) > 0


def test_mixed_fleet_places_single_wave_kernels():
    graphs, schema = entry("table3-1")
    specs = (A100_SPEC, H100_SPEC, V100_SPEC)
    workload = TrainingWorkload(
        model_for_plan(graphs, schema), num_gpus=len(specs), local_batch=BATCH,
        spec=specs[0], specs=specs,
    )
    plan = RapPlanner(workload).plan(graphs)
    assert assert_single_wave(workload, plan.assignments_per_gpu) > 0


def test_carved_tenant_places_single_wave_kernels():
    graphs, schema = entry("table3-2")
    workload = CarvedTrainingWorkload(
        model_for_plan(graphs, schema), num_gpus=2, local_batch=BATCH, share=0.5,
    )
    plan = RapPlanner(workload).plan(graphs)
    assert assert_single_wave(workload, plan.assignments_per_gpu) > 0


@pytest.mark.parametrize("name", ["table3-1", "table3-3"])
def test_recovered_stages_hold_single_wave_kernels(name):
    graphs, schema = entry(name)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=BATCH)
    planner = RapPlanner(workload)
    plan = planner.plan(graphs)
    runtime = FaultTolerantRuntime(planner, graphs, plan=plan)
    recoveries = 0
    for gpu, assignments in enumerate(plan.assignments_per_gpu):
        for stage_idx, kernels in assignments.items():
            for kernel in kernels:
                # An overrun either still fits its stage or trails; an OOM
                # de-fuses a fused kernel and re-shards any other one.
                events = [
                    FaultEvent(LATENCY_OVERRUN, 0, gpu, stage_idx, kernel.name, magnitude=m)
                    for m in (1.5, 1000.0)
                ] + [FaultEvent(FUSED_OOM, 0, gpu, stage_idx, kernel.name)]
                for event in events:
                    staged = [{s: list(ks) for s, ks in a.items()} for a in plan.assignments_per_gpu]
                    trailing = list(plan.trailing_per_gpu[gpu])
                    runtime._recover_kernel(event, staged[gpu], trailing)
                    assert_single_wave(workload, staged)
                    recoveries += 1
    assert recoveries > 0
