"""Unit tests for kernel descriptors, fusion, and sharding physics."""

import pytest
from hypothesis import given, strategies as st

from repro.core.fusion import shard_to_fit_demand
from repro.gpusim.kernel import KernelDesc, fuse_kernels
from repro.gpusim.resources import A100_SPEC, ResourceVector

SLOTS = A100_SPEC.total_warp_slots


def make_kernel(duration=100.0, sm=0.1, dram=0.1, warps=64, tag="FillNull", launch=5.0):
    return KernelDesc(
        name=f"{tag}:test",
        duration_us=duration,
        demand=ResourceVector(sm, dram),
        num_warps=warps,
        tag=tag,
        launch_us=launch,
        warp_slots=SLOTS,
    )


class TestKernelDesc:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            KernelDesc("k", -1.0, ResourceVector(0.1, 0.1))

    def test_rejects_negative_warps(self):
        with pytest.raises(ValueError):
            KernelDesc("k", 1.0, ResourceVector(0.1, 0.1), num_warps=-1)

    def test_rejects_launch_exceeding_duration(self):
        with pytest.raises(ValueError):
            KernelDesc("k", 1.0, ResourceVector(0.1, 0.1), launch_us=2.0)

    def test_body_us(self):
        k = make_kernel(duration=100.0, launch=5.0)
        assert k.body_us == pytest.approx(95.0)

    def test_wave_floor(self):
        """A 3-wave kernel's one-wave body is a third of its body: each
        sub-wave piece it is split into costs exactly that."""
        k = make_kernel(duration=305.0, launch=5.0, warps=3 * SLOTS, sm=1.0)
        pieces = shard_to_fit_demand(k, ResourceVector(0.5, 1.0))
        assert len(pieces) == 6
        assert all(p.body_us == pytest.approx(100.0) for p in pieces)

    def test_with_duration(self):
        k = make_kernel(duration=100.0)
        assert k.with_duration(42.0).duration_us == 42.0

    def test_drifted_identity_is_same_object(self):
        k = make_kernel()
        assert k.drifted(1.0) is k

    def test_drifted_scales_duration_keeps_launch(self):
        k = make_kernel(duration=100.0, launch=5.0)
        grown = k.drifted(2.5)
        assert grown.duration_us == 250.0
        assert grown.launch_us == 5.0
        assert (grown.name, grown.demand, grown.tag) == (k.name, k.demand, k.tag)

    def test_drifted_below_launch_caps_launch(self):
        k = make_kernel(duration=10.0, launch=5.0)
        shrunk = k.drifted(0.25)
        assert shrunk.duration_us == 2.5
        assert shrunk.launch_us == 2.5
        assert shrunk.body_us == 0.0

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.lists(st.floats(min_value=1e-3, max_value=1e3), max_size=8),
    )
    def test_drifted_launch_stays_within_duration(self, duration, factors):
        k = make_kernel(duration=duration, launch=min(5.0, duration))
        for factor in factors:
            k = k.drifted(factor)
            assert 0.0 <= k.launch_us <= k.duration_us


class TestSharding:
    """The wave-floor split rule, through ``shard_to_fit_demand``: pieces
    sized so each one's demand fits a stage's leftover."""

    def test_shard_below_saturation_hits_wave_floor(self):
        """A sub-saturation kernel does not get faster by sharding."""
        k = make_kernel(duration=25.0, launch=5.0, warps=1000, sm=1000 / SLOTS)
        a, b = shard_to_fit_demand(k, ResourceVector(k.demand.sm / 2, 1.0))
        # Both shards keep the full wave-floor body time.
        assert a.body_us == pytest.approx(k.body_us, rel=0.01)
        assert b.body_us == pytest.approx(k.body_us, rel=0.01)

    def test_shard_demand_drops_below_saturation(self):
        k = make_kernel(duration=105.0, launch=5.0, warps=SLOTS // 2, sm=0.5, dram=0.4)
        a, _ = shard_to_fit_demand(k, ResourceVector(0.25, 1.0))
        assert a.demand.sm == pytest.approx(0.25, rel=0.05)
        assert a.demand.dram < 0.4

    def test_shard_names_are_distinct(self):
        pieces = shard_to_fit_demand(make_kernel(warps=2 * SLOTS), ResourceVector(0.05, 1.0))
        assert len({p.name for p in pieces}) == len(pieces) > 1

    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_shard_warps_conserved_approximately(self, leftover_sm):
        k = make_kernel(duration=405.0, launch=5.0, warps=10_000, sm=1.0)
        pieces = shard_to_fit_demand(k, ResourceVector(leftover_sm, 1.0))
        assert abs(sum(p.num_warps for p in pieces) - k.num_warps) <= k.num_warps * 0.02 + 2


class TestFusion:
    def test_fuse_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse_kernels([], A100_SPEC)

    def test_fuse_mixed_types_rejected(self):
        with pytest.raises(ValueError):
            fuse_kernels([make_kernel(tag="FillNull"), make_kernel(tag="Ngram")], A100_SPEC)

    def test_fuse_single_is_identity(self):
        k = make_kernel()
        assert fuse_kernels([k], A100_SPEC) is k

    def test_fusion_amortizes_launch(self):
        """Fusing launch-bound kernels beats running them back to back."""
        members = [make_kernel(duration=20.0, launch=5.0, sm=0.01, dram=0.01, warps=32) for _ in range(8)]
        fused = fuse_kernels(members, A100_SPEC)
        serial = sum(k.duration_us for k in members)
        assert fused.duration_us < serial
        assert fused.duration_us < serial / 3

    def test_fused_demand_is_summed(self):
        members = [make_kernel(sm=0.2, dram=0.1, warps=SLOTS // 5) for _ in range(3)]
        fused = fuse_kernels(members, A100_SPEC)
        assert fused.demand.sm == pytest.approx(0.6, rel=0.01)
        assert fused.demand.dram == pytest.approx(0.3, rel=0.01)

    def test_fused_demand_capped_at_one(self):
        members = [make_kernel(sm=0.5, dram=0.5, warps=SLOTS // 2) for _ in range(4)]
        fused = fuse_kernels(members, A100_SPEC)
        assert fused.demand.sm == 1.0
        assert fused.demand.dram == 1.0

    def test_fusion_never_beats_max_member_body(self):
        members = [make_kernel(duration=50.0, launch=5.0, warps=500, sm=0.07) for _ in range(4)]
        fused = fuse_kernels(members, A100_SPEC)
        assert fused.body_us >= max(k.body_us for k in members) - 1e-9

    def test_fusion_never_exceeds_serial_body(self):
        members = [make_kernel(duration=100.0, launch=5.0, warps=SLOTS, sm=1.0) for _ in range(5)]
        fused = fuse_kernels(members, A100_SPEC)
        assert fused.body_us <= sum(k.body_us for k in members) + 1e-9

    def test_fused_metadata(self):
        members = [make_kernel() for _ in range(3)]
        fused = fuse_kernels(members, A100_SPEC)
        assert fused.meta["members"] == 3
        assert len(fused.meta["fused"]) == 3
        assert fused.tag == "FillNull"

    def test_fused_warps_summed(self):
        members = [make_kernel(warps=100) for _ in range(4)]
        assert fuse_kernels(members, A100_SPEC).num_warps == 400

    @given(st.integers(min_value=2, max_value=30))
    def test_fusion_monotone_in_member_count(self, n):
        """More fused members never make the fused kernel shorter."""
        small = [make_kernel(duration=20.0, launch=5.0, sm=0.05, dram=0.02, warps=320) for _ in range(n)]
        fused_n = fuse_kernels(small, A100_SPEC)
        fused_2 = fuse_kernels(small[:2], A100_SPEC)
        assert fused_n.duration_us >= fused_2.duration_us - 1e-9
