"""Unit tests for GPU specs and resource-vector arithmetic."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.gpusim.device import GpuDevice, StageProfile
from repro.gpusim.kernel import KernelDesc
from repro.gpusim.resources import (
    A100_SPEC,
    V100_SPEC,
    GpuSpec,
    ResourceVector,
    warps_to_sm_fraction,
)

fractions = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


def corun_slowdown(train: ResourceVector, other: ResourceVector) -> float:
    """The device's slowdown when a stage and an equally long kernel co-run.

    Under the rate-sharing model both advance at ``1 / s`` of their
    standalone rate, where ``s`` is the combined demand on the most
    contended resource (at least 1), so both finish after ``s`` times
    their standalone duration.
    """
    stage = StageProfile("s", 1000.0, train)
    kernel = KernelDesc("k", 1000.0, other)
    result = GpuDevice(A100_SPEC).simulate_iteration([stage], {0: [kernel]})
    return result.total_time_us / 1000.0


class TestGpuSpec:
    def test_a100_defaults(self):
        assert A100_SPEC.num_sms == 108
        assert A100_SPEC.warps_per_sm == 64
        assert A100_SPEC.total_warp_slots == 108 * 64

    def test_v100_is_smaller(self):
        assert V100_SPEC.num_sms < A100_SPEC.num_sms
        assert V100_SPEC.dram_bw_gbps < A100_SPEC.dram_bw_gbps

    def test_dram_bytes_per_us(self):
        spec = GpuSpec(dram_bw_gbps=1000.0)
        assert spec.dram_bytes_per_us == pytest.approx(1e6)

    def test_h2d_time_scales_linearly(self):
        assert A100_SPEC.h2d_time_us(2_000_000) == pytest.approx(
            2 * A100_SPEC.h2d_time_us(1_000_000)
        )

    def test_h2d_time_zero_bytes(self):
        assert A100_SPEC.h2d_time_us(0) == 0.0
        assert A100_SPEC.h2d_time_us(-5) == 0.0


class TestWarpsToSmFraction:
    def test_zero_warps(self):
        assert warps_to_sm_fraction(0, A100_SPEC) == 0.0

    def test_negative_warps(self):
        assert warps_to_sm_fraction(-10, A100_SPEC) == 0.0

    def test_saturation(self):
        assert warps_to_sm_fraction(A100_SPEC.total_warp_slots, A100_SPEC) == 1.0
        assert warps_to_sm_fraction(10 * A100_SPEC.total_warp_slots, A100_SPEC) == 1.0

    def test_half_occupancy(self):
        half = A100_SPEC.total_warp_slots // 2
        assert warps_to_sm_fraction(half, A100_SPEC) == pytest.approx(0.5)

    @given(st.integers(min_value=0, max_value=10**7))
    def test_bounded(self, warps):
        frac = warps_to_sm_fraction(warps, A100_SPEC)
        assert 0.0 <= frac <= 1.0


class TestResourceVector:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ResourceVector(-0.1, 0.5)
        with pytest.raises(ValueError):
            ResourceVector(0.5, -0.1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ResourceVector(math.nan, 0.0)

    def test_add(self):
        v = ResourceVector(0.3, 0.4) + ResourceVector(0.2, 0.1)
        assert v.sm == pytest.approx(0.5)
        assert v.dram == pytest.approx(0.5)

    def test_scale(self):
        v = ResourceVector(0.4, 0.8).scale(0.5)
        assert v.sm == pytest.approx(0.2)
        assert v.dram == pytest.approx(0.4)

    def test_scale_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            ResourceVector(0.1, 0.1).scale(-1.0)

    def test_peak(self):
        assert ResourceVector(0.3, 0.7).peak == pytest.approx(0.7)
        assert ResourceVector(0.9, 0.7).peak == pytest.approx(0.9)

    def test_headroom(self):
        h = ResourceVector(0.3, 0.9).headroom()
        assert h.sm == pytest.approx(0.7)
        assert h.dram == pytest.approx(0.1)

    def test_headroom_never_negative(self):
        h = ResourceVector(1.5, 2.0).headroom()
        assert h.sm == 0.0
        assert h.dram == 0.0

    def test_fits_within(self):
        avail = ResourceVector(0.5, 0.5)
        assert ResourceVector(0.5, 0.5).fits_within(avail)
        assert ResourceVector(0.4, 0.1).fits_within(avail)
        assert not ResourceVector(0.6, 0.1).fits_within(avail)

    def test_contention_factor_no_contention(self):
        train = ResourceVector(0.5, 0.5)
        assert corun_slowdown(train, ResourceVector(0.4, 0.4)) == pytest.approx(1.0)

    def test_contention_factor_oversubscribed(self):
        train = ResourceVector(0.8, 0.2)
        assert corun_slowdown(train, ResourceVector(0.5, 0.1)) == pytest.approx(1.3)

    def test_contention_picks_worst_resource(self):
        train = ResourceVector(0.2, 0.9)
        kernel = ResourceVector(0.2, 0.5)
        assert corun_slowdown(train, kernel) == pytest.approx(1.4)

    def test_as_tuple(self):
        assert ResourceVector(0.25, 0.75).as_tuple() == (0.25, 0.75)

    @given(fractions, fractions, fractions, fractions)
    def test_contention_is_symmetric(self, a, b, c, d):
        v1, v2 = ResourceVector(a, b), ResourceVector(c, d)
        assert corun_slowdown(v1, v2) == pytest.approx(corun_slowdown(v2, v1))

    @given(fractions, fractions)
    def test_contention_at_least_one(self, a, b):
        v = ResourceVector(a, b)
        assert corun_slowdown(v, ResourceVector(0.0, 0.0)) >= 1.0

    @given(fractions, fractions)
    def test_headroom_plus_util_covers_unit(self, a, b):
        v = ResourceVector(a, b)
        h = v.headroom()
        assert v.sm + h.sm >= 1.0 - 1e-12 or v.sm >= 1.0
        assert min(v.sm + h.sm, 1.0) == pytest.approx(min(1.0, max(v.sm, 1.0)) if v.sm >= 1 else 1.0)
