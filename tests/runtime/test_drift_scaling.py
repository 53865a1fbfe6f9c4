"""One drift function prices both the live runtime and shadow scoring.

Every run-time change to a placed kernel's duration goes through
:func:`repro.core.planner.scale_plan_kernels` (uniform plan_drift scale,
then the op type's injected factor). Compounded downward drift must keep
every kernel valid -- launch overhead capped at the drifted duration --
and both the runtime and :meth:`RapPlanner.evaluate_scaled` must keep
producing positive iteration times. With no faults, the shadow scorer and
the live iteration must agree exactly.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RapPlanner
from repro.core.planner import scale_plan_kernels
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.runtime import FaultTolerantRuntime
from repro.telemetry import LatencyDrift

BATCH = 1024
ITERATION = 3


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(1, rows=BATCH)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=BATCH)
    planner = RapPlanner(workload)
    return graphs, planner, planner.plan(graphs)


def placed(assignments, trailing):
    return [k for per_gpu in assignments for ks in per_gpu.values() for k in ks] + [
        k for ks in trailing for k in ks
    ]


def live_record(setting, scale, tag, factor):
    """One fault-free runtime iteration at drift ``scale`` with ``tag``
    kernels running ``factor`` x their modeled duration."""
    graphs, planner, plan = setting
    drift = [LatencyDrift(tag, factor)] if factor != 1.0 else []
    runtime = FaultTolerantRuntime(planner, graphs, plan=plan, drift_schedule=drift)
    runtime._scale = scale
    record, faults, _ = runtime.run_iteration(ITERATION)
    assert faults == []
    return record


#: plan_drift steps of the fault model's default magnitude (x2 or x1/2).
drift_steps = st.lists(st.sampled_from([2.0, 0.5]), max_size=8)


@settings(max_examples=25, deadline=None)
@given(
    steps=drift_steps,
    factor=st.floats(min_value=0.5, max_value=2.0),
    tag=st.sampled_from(["FillNull", "Logit", "SigridHash", "FirstX", "Clamp"]),
)
def test_compounded_drift_keeps_kernels_valid(setting, steps, factor, tag):
    _, planner, plan = setting
    scale = math.prod(steps)
    assignments, trailing = scale_plan_kernels(plan, scale, {tag: factor})
    for kernel in placed(assignments, trailing):
        assert 0.0 <= kernel.launch_us <= kernel.duration_us
    assert planner.evaluate_scaled(plan, scale, {tag: factor}).iteration_us > 0
    assert live_record(setting, scale, tag, factor).iteration_us > 0


def test_drift_composes_scale_then_factor(setting):
    """``(d * scale) * factor``, the order the runtime has always used; at
    these values it differs from ``d * (scale * factor)`` in the last bit."""
    _, _, plan = setting
    assignments, trailing = scale_plan_kernels(plan, 0.1, {"Clamp": 3.0})
    original = placed(plan.assignments_per_gpu, plan.trailing_per_gpu)
    for before, after in zip(original, placed(assignments, trailing), strict=True):
        expected = before.duration_us * 0.1
        if before.tag == "Clamp":
            expected *= 3.0
        assert after.duration_us == expected


def test_identity_drift_reuses_kernels_in_fresh_containers(setting):
    _, _, plan = setting
    assignments, trailing = scale_plan_kernels(plan, 1.0)
    for per_gpu, orig in zip(assignments, plan.assignments_per_gpu):
        for stage, kernels in per_gpu.items():
            assert kernels is not orig[stage]
            assert all(a is b for a, b in zip(kernels, orig[stage], strict=True))
    assert all(a is not b for a, b in zip(trailing, plan.trailing_per_gpu))


@pytest.mark.parametrize("scale", [0.25, 0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
def test_shadow_scoring_prices_what_the_runtime_runs(setting, scale, factor):
    _, planner, plan = setting
    record = live_record(setting, scale, "SigridHash", factor)
    factors = {"SigridHash": factor} if factor != 1.0 else None
    report = planner.evaluate_scaled(plan, scale, factors)
    assert record.iteration_us == report.iteration_us
    assert record.exposed_us == report.exposed_preprocessing_us
