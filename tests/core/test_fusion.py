"""Unit tests for the horizontal fusion pass and sharding helpers (§6)."""

import pytest

from repro.core.fusion import (
    HorizontalFusionPass,
    build_fusion_instance,
    shard_to_fit_demand,
)
from repro.gpusim.kernel import KernelDesc
from repro.gpusim.resources import A100_SPEC, ResourceVector
from repro.milp.fusion_problem import FusionInstance
from repro.preprocessing.graph import FeatureGraph
from repro.preprocessing.ops import Clamp, FillNull, FirstX, Logit, SigridHash

SLOTS = A100_SPEC.total_warp_slots


def sparse_chain(j):
    p = f"s{j}"
    return FeatureGraph(
        name=f"g{j}",
        ops=[
            SigridHash(inputs=(f"sparse_{j}",), output=f"{p}_h"),
            FirstX(inputs=(f"{p}_h",), output=f"{p}_f", x=2),
            Clamp(inputs=(f"{p}_f",), output=f"{p}_o", upper=99),
        ],
        consumer=f"table:sparse_{j}",
    )


def dense_chain(i):
    p = f"d{i}"
    return FeatureGraph(
        name=f"gd{i}",
        ops=[
            FillNull(inputs=(f"dense_{i}",), output=f"{p}_f"),
            Logit(inputs=(f"{p}_f",), output=f"{p}_o"),
        ],
        consumer="dense",
    )


class TestBuildFusionInstance:
    def test_global_indices(self):
        graphs = [sparse_chain(0), sparse_chain(1)]
        inst = build_fusion_instance(graphs)
        assert inst.num_ops == 6
        assert inst.op_types == ["SigridHash", "FirstX", "Clamp"] * 2

    def test_deps_offset_per_graph(self):
        graphs = [sparse_chain(0), sparse_chain(1)]
        inst = build_fusion_instance(graphs)
        assert (0, 1) in inst.deps
        assert (3, 4) in inst.deps
        # No cross-graph dependencies.
        assert all((a < 3) == (b < 3) for a, b in inst.deps)


class TestHorizontalFusionPass:
    def test_empty_graphs(self):
        plan = HorizontalFusionPass().run([], rows=128)
        assert plan.kernels == []

    def test_fusion_reduces_kernel_count(self):
        graphs = [sparse_chain(j) for j in range(8)]
        fused = HorizontalFusionPass(enabled=True).run(graphs, rows=1024)
        unfused = HorizontalFusionPass(enabled=False).run(graphs, rows=1024)
        assert len(unfused.kernels) == 24
        assert len(fused.kernels) == 3  # one fused kernel per chain level

    def test_fusion_reduces_total_latency(self):
        graphs = [sparse_chain(j) for j in range(8)]
        fused = HorizontalFusionPass(enabled=True).run(graphs, rows=1024)
        unfused = HorizontalFusionPass(enabled=False).run(graphs, rows=1024)
        assert fused.total_latency_us < unfused.total_latency_us

    def test_disabled_pass_marks_plan(self):
        graphs = [dense_chain(0)]
        plan = HorizontalFusionPass(enabled=False).run(graphs, rows=64)
        assert not plan.fused
        assert plan.max_fusion_degree == 1

    def test_disabled_pass_respects_dependency_order(self):
        graphs = [sparse_chain(0)]
        plan = HorizontalFusionPass(enabled=False).run(graphs, rows=64)
        assert [k.tag for k in plan.kernels] == ["SigridHash", "FirstX", "Clamp"]

    def test_disabled_pass_computes_levels_once(self, monkeypatch):
        # The unfused order sorts by dependency level; computing the levels
        # inside the sort key made the pass quadratic in the op count.
        calls = []
        asap_levels = FusionInstance.asap_levels

        def counting_asap_levels(self):
            calls.append(self.num_ops)
            return asap_levels(self)

        monkeypatch.setattr(FusionInstance, "asap_levels", counting_asap_levels)
        graphs = [sparse_chain(j) for j in range(8)]
        plan = HorizontalFusionPass(enabled=False).run(graphs, rows=64)
        assert len(plan.kernels) == 24
        assert calls == [24]

    def test_mixed_type_groups_never_fused(self):
        graphs = [dense_chain(0), sparse_chain(0)]
        plan = HorizontalFusionPass(enabled=True).run(graphs, rows=64)
        for k in plan.kernels:
            members = k.meta.get("fused", [k.name])
            tags = {m.split(":")[0] for m in members}
            assert len(tags) == 1

    def test_fusion_degree_reported(self):
        graphs = [dense_chain(i) for i in range(5)]
        plan = HorizontalFusionPass(enabled=True).run(graphs, rows=64)
        assert plan.max_fusion_degree == 5


class TestShardToFitDemand:
    def test_already_fits(self):
        k = KernelDesc("k", 100.0, ResourceVector(0.2, 0.2))
        pieces = shard_to_fit_demand(k, ResourceVector(0.5, 0.5))
        assert pieces == [k]

    def test_splits_to_fit(self):
        k = KernelDesc(
            "k", 405.0, ResourceVector(1.0, 0.4), num_warps=4 * SLOTS,
            launch_us=5.0, warp_slots=SLOTS,
        )
        pieces = shard_to_fit_demand(k, ResourceVector(0.3, 0.5))
        assert pieces is not None
        assert len(pieces) >= 3
        for p in pieces:
            assert p.demand.sm <= 0.3 + 0.05

    def test_subwave_sharding_inflates_total_latency(self):
        """Sub-wave pieces each cost a full wave: the pieces fit the thin
        leftover, but their total duration honestly exceeds the parent's."""
        k = KernelDesc(
            "k", 205.0, ResourceVector(0.8, 0.4), num_warps=int(0.8 * SLOTS),
            launch_us=5.0, warp_slots=SLOTS,
        )
        pieces = shard_to_fit_demand(k, ResourceVector(0.3, 0.5))
        assert pieces is not None
        assert all(p.demand.sm <= 0.3 + 0.02 for p in pieces)
        assert sum(p.duration_us for p in pieces) > k.duration_us

    def test_too_thin_leftover_returns_none(self):
        k = KernelDesc("k", 100.0, ResourceVector(1.0, 0.1), num_warps=SLOTS, warp_slots=SLOTS)
        assert shard_to_fit_demand(k, ResourceVector(0.01, 0.5)) is None

    def test_zero_leftover_returns_none(self):
        k = KernelDesc("k", 100.0, ResourceVector(0.5, 0.5))
        assert shard_to_fit_demand(k, ResourceVector(0.0, 0.0)) is None

    def test_pieces_cover_all_work(self):
        k = KernelDesc(
            "k", 405.0, ResourceVector(1.0, 0.6), num_warps=4 * SLOTS,
            launch_us=5.0, warp_slots=SLOTS,
        )
        pieces = shard_to_fit_demand(k, ResourceVector(0.4, 0.6))
        total_warps = sum(p.num_warps for p in pieces)
        assert total_warps == pytest.approx(k.num_warps, rel=0.05)
