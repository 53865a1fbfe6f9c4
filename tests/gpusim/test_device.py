"""Unit tests for the single-GPU co-running simulator: the load-bearing physics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.device import (
    CoRunPolicy,
    GpuDevice,
    MPS_POLICY,
    RAP_POLICY,
    STREAM_POLICY,
    StageProfile,
)
from repro.gpusim.kernel import KernelDesc
from repro.gpusim.resources import A100_SPEC, ResourceVector


def kernel(duration, sm, dram, name="k", tag="FillNull"):
    return KernelDesc(name, duration, ResourceVector(sm, dram), num_warps=64, tag=tag)


class TestStageProfile:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            StageProfile("s", -1.0, ResourceVector(0.1, 0.1))

    def test_leftover(self):
        s = StageProfile("s", 10.0, ResourceVector(0.3, 0.8))
        assert s.leftover().sm == pytest.approx(0.7)
        assert s.leftover().dram == pytest.approx(0.2)


class TestStandaloneExecution:
    def test_training_standalone_time_is_sum(self, device, mlp_stage, emb_stage):
        result = device.run_training_standalone([mlp_stage, emb_stage])
        assert result.total_time_us == pytest.approx(1800.0)
        assert result.training_time_us == pytest.approx(1800.0)
        assert result.exposed_preprocessing_us == 0.0

    def test_kernels_standalone_back_to_back(self, device):
        ks = [kernel(100.0, 0.5, 0.5, f"k{i}") for i in range(3)]
        # With no training stage, trailing kernels run alone on the device.
        result = device.simulate_iteration([], trailing_kernels=ks)
        assert result.total_time_us == pytest.approx(300.0)
        assert len(result.kernel_spans) == 3
        assert all(not s.overlapped for s in result.kernel_spans)

    def test_stage_spans_recorded(self, device, mlp_stage, emb_stage):
        result = device.run_training_standalone([mlp_stage, emb_stage])
        assert [s.name for s in result.stage_spans] == ["mlp_fwd", "emb_lookup"]
        assert result.stage_spans[0].slowdown == pytest.approx(1.0)


class TestFreeCoRunning:
    """Kernels fitting the leftover co-run with zero training slowdown."""

    def test_small_kernel_is_free(self, device, mlp_stage, emb_stage, small_kernel):
        result = device.simulate_iteration([mlp_stage, emb_stage], {0: [small_kernel]})
        assert result.total_time_us == pytest.approx(1800.0)
        assert result.training_slowdown == pytest.approx(1.0)
        assert result.exposed_preprocessing_us == 0.0

    def test_fitting_kernel_span_is_standalone_duration(self, device, mlp_stage, small_kernel):
        result = device.simulate_iteration([mlp_stage], {0: [small_kernel]})
        span = result.kernel_spans[0]
        assert span.wall_time == pytest.approx(small_kernel.duration_us)
        assert span.overlapped

    def test_many_small_kernels_fill_capacity(self, device, mlp_stage):
        ks = [kernel(100.0, 0.1, 0.05, f"k{i}") for i in range(10)]
        result = device.simulate_iteration([mlp_stage], {0: ks})
        # 10 x 100us exactly fills the 1000us stage: all free.
        assert result.total_time_us == pytest.approx(1000.0)
        assert result.exposed_preprocessing_us == pytest.approx(0.0)


class TestContention:
    def test_big_kernel_slows_training(self, device, mlp_stage, big_kernel):
        result = device.simulate_iteration([mlp_stage], {0: [big_kernel]})
        assert result.total_time_us > mlp_stage.duration_us

    def test_slowdown_matches_rate_sharing(self, device):
        stage = StageProfile("s", 1000.0, ResourceVector(0.8, 0.1))
        k = kernel(1000.0, 0.5, 0.1)  # combined SM demand 1.3
        result = device.simulate_iteration([stage], {0: [k]})
        # Both finish together after 1300us: each did 1000us of work at 1/1.3 rate.
        assert result.total_time_us == pytest.approx(1300.0)
        assert result.training_slowdown == pytest.approx(1.3)

    def test_overlap_latency_monotone_in_kernel_demand(self, device, mlp_stage):
        lats = []
        for sm in (0.1, 0.3, 0.5, 0.8, 1.0):
            k = kernel(800.0, sm, 0.1)
            result = device.simulate_iteration([mlp_stage], {0: [k]})
            lats.append(result.total_time_us)
        assert lats == sorted(lats)

    def test_dram_contention_counts_too(self, device, emb_stage):
        k = kernel(800.0, 0.05, 0.5)  # dram: 0.9 + 0.5 = 1.4
        result = device.simulate_iteration([emb_stage], {0: [k]})
        assert result.training_slowdown > 1.3


class TestSpillAndTrailing:
    def test_kernel_spills_across_stages(self, device, mlp_stage, emb_stage):
        # 1500us kernel fits in neither stage alone; it spans both for free
        # (its demand fits both leftovers).
        k = kernel(1500.0, 0.1, 0.05)
        result = device.simulate_iteration([mlp_stage, emb_stage], {0: [k]})
        assert result.total_time_us == pytest.approx(1800.0)
        assert result.kernel_spans[0].wall_time == pytest.approx(1500.0)

    def test_leftover_work_is_exposed(self, device, mlp_stage):
        k = kernel(2500.0, 0.1, 0.05)
        result = device.simulate_iteration([mlp_stage], {0: [k]})
        assert result.training_time_us == pytest.approx(1000.0)
        assert result.exposed_preprocessing_us == pytest.approx(1500.0)
        assert result.total_time_us == pytest.approx(2500.0)

    def test_trailing_kernels_always_exposed(self, device, mlp_stage, small_kernel):
        result = device.simulate_iteration([mlp_stage], trailing_kernels=[small_kernel])
        assert result.exposed_preprocessing_us == pytest.approx(small_kernel.duration_us)

    def test_assignment_out_of_range_rejected(self, device, mlp_stage, small_kernel):
        with pytest.raises(IndexError):
            device.simulate_iteration([mlp_stage], {5: [small_kernel]})


class TestPolicies:
    def test_stream_policy_slower_than_rap(self, device, mlp_stage, emb_stage):
        ks = [kernel(50.0, 0.1, 0.05, f"k{i}") for i in range(20)]
        rap = device.simulate_iteration([mlp_stage, emb_stage], {0: ks}, policy=RAP_POLICY)
        stream = device.simulate_iteration([mlp_stage, emb_stage], {0: ks}, policy=STREAM_POLICY)
        assert stream.total_time_us > rap.total_time_us

    def test_mps_between_rap_and_stream(self, device, mlp_stage, emb_stage):
        ks = [kernel(50.0, 0.1, 0.05, f"k{i}") for i in range(20)]
        rap = device.simulate_iteration([mlp_stage, emb_stage], {0: ks}, policy=RAP_POLICY)
        mps = device.simulate_iteration([mlp_stage, emb_stage], {0: ks}, policy=MPS_POLICY)
        stream = device.simulate_iteration([mlp_stage, emb_stage], {0: ks}, policy=STREAM_POLICY)
        assert rap.total_time_us < mps.total_time_us < stream.total_time_us

    def test_serialization_fraction_bounds(self):
        with pytest.raises(ValueError):
            CoRunPolicy(serialization_fraction=1.5)

    def test_policy_effective_inflation(self, small_kernel):
        policy = CoRunPolicy(demand_inflation=2.0, per_kernel_overhead_us=10.0)
        duration, demand = policy.effective(small_kernel)
        assert duration == pytest.approx(small_kernel.duration_us + 10.0)
        assert demand.sm == pytest.approx(small_kernel.demand.sm * 2.0)

    def test_full_serialization_equals_sequential(self, device, mlp_stage):
        """serialization_fraction=1 degenerates to run-before-training."""
        policy = CoRunPolicy(name="serial", serialization_fraction=1.0)
        k = kernel(400.0, 0.9, 0.9)
        result = device.simulate_iteration([mlp_stage], {0: [k]}, policy=policy)
        assert result.total_time_us == pytest.approx(1400.0)


class TestCapacityHelper:
    def test_capacity_full_when_probe_fits(self, device, mlp_stage):
        probe = ResourceVector(0.1, 0.1)
        assert device.stage_overlapping_capacity(mlp_stage, probe) == pytest.approx(1000.0)

    def test_capacity_scaled_when_probe_oversized(self, device, mlp_stage):
        probe = ResourceVector(0.3, 0.1)  # leftover sm = 0.15 -> admit 0.5
        cap = device.stage_overlapping_capacity(mlp_stage, probe)
        assert cap == pytest.approx(500.0)

    def test_capacity_zero_probe(self, device, mlp_stage):
        assert device.stage_overlapping_capacity(mlp_stage, ResourceVector(0, 0)) == pytest.approx(
            1000.0
        )


class TestTraceConsistency:
    def test_trace_covers_iteration(self, device, mlp_stage, emb_stage, big_kernel):
        result = device.simulate_iteration([mlp_stage, emb_stage], {0: [big_kernel]})
        assert result.trace.t_end == pytest.approx(result.total_time_us)

    def test_utilization_never_exceeds_one(self, device, mlp_stage, big_kernel):
        result = device.simulate_iteration([mlp_stage], {0: [big_kernel]})
        for seg in result.trace.segments:
            assert seg.utilization.sm <= 1.0 + 1e-9
            assert seg.utilization.dram <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    duration=st.floats(min_value=1.0, max_value=5000.0),
    sm=st.floats(min_value=0.0, max_value=1.0),
    dram=st.floats(min_value=0.0, max_value=1.0),
)
def test_corun_never_faster_than_training(duration, sm, dram):
    """Property: co-running can only extend the iteration, never shrink it."""
    device = GpuDevice(A100_SPEC)
    stages = [
        StageProfile("mlp", 1000.0, ResourceVector(0.85, 0.3)),
        StageProfile("emb", 500.0, ResourceVector(0.2, 0.9)),
    ]
    k = KernelDesc("k", duration, ResourceVector(sm, dram), num_warps=32)
    result = device.simulate_iteration(stages, {0: [k]})
    assert result.total_time_us >= 1500.0 - 1e-6
    # And never slower than fully sequential execution.
    assert result.total_time_us <= 1500.0 + duration * max(1.0, sm + 1, dram + 1) + 1e-6


@settings(max_examples=30, deadline=None)
@given(
    durations=st.lists(st.floats(min_value=1.0, max_value=300.0), min_size=1, max_size=8),
)
def test_kernel_work_is_conserved(durations):
    """Property: every assigned kernel eventually completes exactly once."""
    device = GpuDevice(A100_SPEC)
    stages = [StageProfile("mlp", 400.0, ResourceVector(0.8, 0.3))]
    ks = [
        KernelDesc(f"k{i}", d, ResourceVector(0.15, 0.1), num_warps=32)
        for i, d in enumerate(durations)
    ]
    result = device.simulate_iteration(stages, {0: ks})
    assert len(result.kernel_spans) == len(ks)
    assert {s.name for s in result.kernel_spans} == {k.name for k in ks}
