"""The device's result memo and its lazily built utilization trace.

A memoized result must be indistinguishable from a fresh simulation of the
same input, a repeated input must return the very same (shared) object,
and a change to any field the simulation loop reads must miss the memo.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim import (
    GpuDevice,
    KernelDesc,
    MPS_POLICY,
    RAP_POLICY,
    ResourceVector,
    STREAM_POLICY,
    StageProfile,
    TraceSegment,
    UtilizationTrace,
)
from repro.gpusim.device import MEMO_ENTRIES, CoRunPolicy, _RunningKernel

POLICIES = (RAP_POLICY, STREAM_POLICY, MPS_POLICY)

fraction = st.floats(min_value=0.0, max_value=1.0)
resources = st.builds(ResourceVector, sm=fraction, dram=fraction)

stage_strategy = st.builds(
    StageProfile,
    name=st.sampled_from(["mlp", "emb", "comm", "opt"]),
    duration_us=st.floats(min_value=10.0, max_value=3000.0),
    utilization=resources,
)

kernel_strategy = st.builds(
    KernelDesc,
    name=st.sampled_from(["k1", "k2", "k3"]),
    duration_us=st.floats(min_value=1.0, max_value=800.0),
    demand=resources,
    num_warps=st.integers(min_value=1, max_value=20_000),
    tag=st.sampled_from(["Ngram", "SigridHash", "Clamp"]),
)


@st.composite
def iteration_inputs(draw):
    stages = draw(st.lists(stage_strategy, min_size=1, max_size=5))
    kernels = draw(st.lists(kernel_strategy, min_size=1, max_size=6))
    assignments: dict[int, list[KernelDesc]] = {}
    trailing: list[KernelDesc] = []
    for kernel in kernels:
        idx = draw(st.integers(min_value=-1, max_value=len(stages) - 1))
        if idx < 0:
            trailing.append(kernel)
        else:
            assignments.setdefault(idx, []).append(kernel)
    policy = draw(st.sampled_from(POLICIES))
    t0 = draw(st.sampled_from([0.0, 125.5, 4096.0]))
    return stages, assignments, trailing, policy, t0


def simulate(device, inputs):
    stages, assignments, trailing, policy, t0 = inputs
    return device.simulate_iteration(
        stages, assignments, trailing_kernels=trailing, policy=policy, t0=t0
    )


def fields(result) -> dict:
    """Every field of a result, the built trace's segments included."""
    values = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    values["trace"] = result.trace.segments
    return values


def equal_copy(inputs):
    """The same input in new containers and new (equal) objects, with the
    kernel fields the loop does not read changed."""
    stages, assignments, trailing, policy, t0 = inputs

    def copy(k):
        return dataclasses.replace(k, num_warps=k.num_warps + 1, meta={"copy": True})

    return (
        [dataclasses.replace(s) for s in stages],
        {idx: [copy(k) for k in ks] for idx, ks in assignments.items()},
        [copy(k) for k in trailing],
        dataclasses.replace(policy),
        t0,
    )


def other(value: float) -> float:
    """A different fraction in [0, 1]."""
    return value / 2 if value > 0 else 0.5


def mutations(inputs):
    """One input per field the loop reads, each differing in that field."""
    stages, assignments, trailing, policy, t0 = inputs
    if assignments:
        idx = min(assignments)

        def with_kernel(change):
            ks = list(assignments[idx])
            ks[0] = change(ks[0])
            return stages, {**assignments, idx: ks}, trailing, policy, t0
    else:

        def with_kernel(change):
            return stages, assignments, [change(trailing[0])] + trailing[1:], policy, t0

    def with_stage(change):
        return [change(stages[0])] + stages[1:], assignments, trailing, policy, t0

    def demand(k, sm=None, dram=None):
        return ResourceVector(k.demand.sm if sm is None else sm, k.demand.dram if dram is None else dram)

    replace = dataclasses.replace
    next_policy = POLICIES[(POLICIES.index(policy) + 1) % len(POLICIES)]
    return {
        "kernel name": with_kernel(lambda k: replace(k, name=k.name + "x")),
        "kernel tag": with_kernel(lambda k: replace(k, tag=k.tag + "x")),
        "kernel duration": with_kernel(lambda k: replace(k, duration_us=k.duration_us + 1.0)),
        "kernel sm": with_kernel(lambda k: replace(k, demand=demand(k, sm=other(k.demand.sm)))),
        "kernel dram": with_kernel(
            lambda k: replace(k, demand=demand(k, dram=other(k.demand.dram)))
        ),
        "stage sm": with_stage(
            lambda s: replace(
                s, utilization=ResourceVector(other(s.utilization.sm), s.utilization.dram)
            )
        ),
        "stage dram": with_stage(
            lambda s: replace(
                s, utilization=ResourceVector(s.utilization.sm, other(s.utilization.dram))
            )
        ),
        "stage duration": with_stage(lambda s: replace(s, duration_us=s.duration_us + 1.0)),
        "policy": (stages, assignments, trailing, next_policy, t0),
        "t0": (stages, assignments, trailing, policy, t0 + 1.0),
    }


@settings(max_examples=60, deadline=None)
@given(inputs=iteration_inputs())
def test_memoized_result_equals_fresh_simulation(inputs):
    device = GpuDevice()
    first = simulate(device, inputs)
    hit = simulate(device, equal_copy(inputs))
    assert hit is first
    assert fields(hit) == fields(simulate(GpuDevice(), inputs))


@settings(max_examples=40, deadline=None)
@given(inputs=iteration_inputs())
def test_changing_any_read_field_misses(inputs):
    device = GpuDevice()
    first = simulate(device, inputs)
    for what, changed in mutations(inputs).items():
        result = simulate(device, changed)
        assert result is not first, what
        assert fields(result) == fields(simulate(GpuDevice(), changed)), what
    assert simulate(device, inputs) is first


@settings(max_examples=60, deadline=None)
@given(kernel=kernel_strategy, policy=st.sampled_from(POLICIES))
def test_running_kernel_floats_match_effective(kernel, policy):
    running = _RunningKernel(kernel, policy)
    duration, demand = policy.effective(kernel)
    assert running.remaining_us == duration
    assert (running.sm, running.dram) == (demand.sm, demand.dram)


def test_memo_is_bounded_lru(mlp_stage, small_kernel):
    device = GpuDevice()

    def run(i):
        kernel = dataclasses.replace(small_kernel, duration_us=100.0 + i)
        return device.simulate_iteration([mlp_stage], {0: [kernel]})

    first = run(0)
    results = [run(i) for i in range(1, MEMO_ENTRIES)]
    assert run(0) is first  # refreshed: now the most recently used
    run(MEMO_ENTRIES)  # evicts the least recently used, input 1
    assert run(0) is first
    assert run(1) is not results[0]
    assert len(device._memo) == MEMO_ENTRIES


def test_trace_is_built_on_first_read(monkeypatch, mlp_stage, emb_stage, small_kernel):
    built = {"segments": 0, "traces": 0}
    post_init, init = TraceSegment.__post_init__, UtilizationTrace.__init__

    def counting_post_init(self):
        built["segments"] += 1
        post_init(self)

    def counting_init(self, *args, **kwargs):
        built["traces"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceSegment, "__post_init__", counting_post_init)
    monkeypatch.setattr(UtilizationTrace, "__init__", counting_init)
    result = GpuDevice().simulate_iteration(
        [mlp_stage, emb_stage], {0: [small_kernel]}, policy=STREAM_POLICY
    )
    assert built == {"segments": 0, "traces": 0}
    trace = result.trace
    assert built["traces"] == 1 and built["segments"] == len(result.segments)
    assert result.trace is trace
    labels = [seg.label for seg in trace]
    assert "issue_stall" in labels and "mlp_fwd+k_small" in labels


def test_negative_demand_inflation_is_rejected():
    with pytest.raises(ValueError, match="demand_inflation"):
        CoRunPolicy(demand_inflation=-1.0)
