"""What a device memo hit costs: a key built from parts computed once.

Each kernel, stage, stage pipeline and policy computes its part of the
memo key once, so a repeated input hashes plain tuples, never a
dataclass's generated ``__hash__``.
"""

import dataclasses

import pytest

from repro.core import RapPlanner
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.gpusim import device, kernel, resources
from repro.preprocessing import build_plan

BATCH = 1024


def generated_hash_classes():
    """Every frozen dataclass of the simulator whose ``__hash__`` the
    dataclass decorator generated."""
    for module in (device, kernel, resources):
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and dataclasses.is_dataclass(value)
                and value.__dataclass_params__.frozen
                and value.__module__ == module.__name__
            ):
                yield value


@pytest.fixture
def hashes(monkeypatch):
    calls = []
    for cls in generated_hash_classes():
        original = cls.__hash__

        def counted(self, original=original):
            calls.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(cls, "__hash__", counted)
    return calls


@pytest.fixture(scope="module")
def placement():
    graphs, schema = build_plan(1, rows=BATCH)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=BATCH)
    plan = RapPlanner(workload).plan(graphs)
    return workload, plan


def test_the_classes_are_found():
    names = {cls.__name__ for cls in generated_hash_classes()}
    assert {"StageProfile", "CoRunPolicy", "KernelDesc", "ResourceVector"} <= names


def test_a_memo_hit_makes_no_generated_hash_call(placement, hashes):
    workload, plan = placement
    gpu = workload.cluster.devices[0]
    stages = workload.stages_for_gpu(0)
    assignments, trailing = plan.assignments_per_gpu[0], plan.trailing_per_gpu[0]
    assert assignments
    first = gpu.simulate_iteration(stages, assignments, trailing)
    # A repeat, and an equal copy in new containers, both hit.
    copy = {stage: list(kernels) for stage, kernels in assignments.items()}
    hashes.clear()
    assert gpu.simulate_iteration(stages, assignments, trailing) is first
    assert gpu.simulate_iteration(list(stages), copy, list(trailing)) is first
    assert hashes == []


def test_a_cluster_iteration_hit_makes_no_generated_hash_call(placement, hashes):
    workload, plan = placement
    simulate = dict(
        assignments_per_gpu=plan.assignments_per_gpu,
        trailing_per_gpu=plan.trailing_per_gpu,
    )
    first = workload.simulate(**simulate)
    hashes.clear()
    again = workload.simulate(**simulate)
    assert all(a is b for a, b in zip(again.per_gpu, first.per_gpu, strict=True))
    assert hashes == []
