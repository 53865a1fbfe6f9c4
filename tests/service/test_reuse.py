"""Tenant-invariant plan reuse: rename, canonicalize, specialize."""

import hashlib
import json

import pytest

from repro.core import PlanCache, RapPlanner, plan_from_json, plan_to_json
from repro.core.plan_cache import (
    graph_set_fingerprint,
    invariant_graph_set_fingerprint,
    invariant_plan_key,
)
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.service import SharedPlanIndex, canonicalize_plan, renamed_model, specialize_plan

#: SHA-256 of tenant A's plan specialized into tenant B's names, as the
#: text rewriter that renamed serialized plans produced it (and as tenant
#: B's own cold search serializes).
SPECIALIZED_B_SHA256 = "516cf3906266be3c3e4c2cfb1d6e4bb10b0569e1a58c513a7ad7114dc6bdc4c2"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def tenant_a():
    graphs, schema = build_plan(0, rows=512)
    config = model_for_plan(graphs, schema)
    workload = TrainingWorkload(config, num_gpus=2, local_batch=512)
    return graphs, config, workload


@pytest.fixture(scope="module")
def tenant_b(tenant_a):
    graphs, config, _ = tenant_a
    graphs_b, config_b = renamed_model(graphs, config, "b.")
    workload_b = TrainingWorkload(config_b, num_gpus=2, local_batch=512)
    return graphs_b, config_b, workload_b


class TestRenamedModel:
    def test_names_are_prefixed(self, tenant_a, tenant_b):
        graphs, _, _ = tenant_a
        graphs_b, config_b, _ = tenant_b
        assert {g.name for g in graphs_b} == {f"b.{g.name}" for g in graphs}
        for table in config_b.tables:
            assert table.name.startswith("table:")
            assert table.name.endswith(".b")

    def test_dense_consumer_is_structural(self, tenant_b):
        graphs_b, _, _ = tenant_b
        assert any(g.consumer == "dense" for g in graphs_b)

    def test_isomorphic_under_invariant_fingerprint(self, tenant_a, tenant_b):
        graphs, _, _ = tenant_a
        graphs_b, _, _ = tenant_b
        assert graph_set_fingerprint(graphs) != graph_set_fingerprint(graphs_b)
        assert invariant_graph_set_fingerprint(graphs) == invariant_graph_set_fingerprint(
            graphs_b
        )

    def test_table_sizes_preserved(self, tenant_a, tenant_b):
        # Renaming must NOT fall back to the generic generated-table size.
        _, config, _ = tenant_a
        _, config_b, _ = tenant_b
        assert [t.hash_size for t in config.tables] == [
            t.hash_size for t in config_b.tables
        ]

    def test_placements_isomorphic(self, tenant_a, tenant_b):
        _, _, workload = tenant_a
        _, _, workload_b = tenant_b
        strip = lambda name: name.removeprefix("table:").removesuffix(".b")
        lhs = {strip(t): g for t, g in workload.placement.table_to_gpu.items()}
        rhs = {strip(t): g for t, g in workload_b.placement.table_to_gpu.items()}
        assert lhs == rhs


class TestPlanTextRenaming:
    def test_canonical_form_is_tenant_invariant(self, tenant_a, tenant_b):
        graphs, _, workload = tenant_a
        graphs_b, _, workload_b = tenant_b
        plan_a = RapPlanner(workload).plan(graphs)
        plan_b = RapPlanner(workload_b).plan(graphs_b)
        canon_a = json.loads(plan_to_json(canonicalize_plan(plan_a, graphs)))
        canon_b = json.loads(plan_to_json(canonicalize_plan(plan_b, graphs_b)))
        # A canonical plan keeps its tenant's workload, so only the model
        # name tells the two apart.
        assert canon_a["workload"].pop("model") != canon_b["workload"].pop("model")
        assert canon_a == canon_b

    def test_specialize_round_trips_bytes(self, tenant_a):
        graphs, _, workload = tenant_a
        plan = RapPlanner(workload).plan(graphs)
        canonical = canonicalize_plan(plan, graphs)
        assert plan_to_json(specialize_plan(canonical, workload, graphs)) == plan_to_json(plan)

    def test_specialize_into_other_tenant_loads(self, tenant_a, tenant_b):
        graphs, _, workload = tenant_a
        graphs_b, _, workload_b = tenant_b
        plan_a = RapPlanner(workload).plan(graphs)
        canonical = canonicalize_plan(plan_a, graphs)
        plan_b = specialize_plan(canonical, workload_b, graphs_b)
        assert plan_b.workload is workload_b and plan_b.graph_set is graphs_b
        text = plan_to_json(plan_b)
        assert _sha256(text) == SPECIALIZED_B_SHA256
        assert plan_to_json(plan_from_json(text, workload_b, graphs_b)) == text
        assert plan_b.predicted_exposed_us == pytest.approx(plan_a.predicted_exposed_us)
        # Every kernel landed under tenant B's names.
        for per_gpu in plan_b.assignments_per_gpu:
            for kernels in per_gpu.values():
                for kernel in kernels:
                    if not kernel.name.startswith("fused_"):
                        assert ".b" in kernel.name.partition(":")[2]
        assert set(plan_b.mapping.placements) == {g.name for g in graphs_b}


class TestSharedPlanIndex:
    def _key(self, planner, graphs):
        return invariant_plan_key(
            planner.workload,
            graphs,
            planner.mapping_strategy,
            planner.fusion_enabled,
            planner.interleaving_enabled,
            planner.solver,
            predictor_fingerprint=planner._predictor_fingerprint(),
        )

    def test_isomorphic_tenant_hits_without_solver(
        self, tenant_a, tenant_b, tmp_path, solve_calls
    ):
        graphs, _, workload = tenant_a
        graphs_b, _, workload_b = tenant_b
        cache = PlanCache(tmp_path)
        index = SharedPlanIndex(cache)

        planner_a = RapPlanner(workload, cache=cache)
        plan_a = planner_a.plan(graphs)
        index.store(self._key(planner_a, graphs), plan_a, graphs)

        planner_b = RapPlanner(workload_b, cache=cache)
        solve_calls.clear()
        plan_b = index.lookup(self._key(planner_b, graphs_b), workload_b, graphs_b)
        assert plan_b is not None
        assert len(solve_calls) == 0  # no solve at all
        assert planner_b.stats.plans == 0  # the planner never searched
        assert _sha256(plan_to_json(plan_b)) == SPECIALIZED_B_SHA256
        assert index.hits == 1
        # A fresh process reads the same entry from the disk tier.
        fresh = SharedPlanIndex(PlanCache(tmp_path))
        from_disk = fresh.lookup(self._key(planner_b, graphs_b), workload_b, graphs_b)
        assert _sha256(plan_to_json(from_disk)) == SPECIALIZED_B_SHA256

    def test_invariant_hit_skips_milp_a_cold_search_needs(
        self, tenant_a, tenant_b, tmp_path, solve_calls
    ):
        # The cold search solves fusion, so the zero count on the invariant
        # hit is a real probe, not a vacuous one.
        graphs, _, workload = tenant_a
        graphs_b, _, workload_b = tenant_b
        cache = PlanCache(tmp_path)
        index = SharedPlanIndex(cache)
        planner_a = RapPlanner(workload, cache=cache)
        plan_a = planner_a.plan(graphs)
        assert len(solve_calls) > 0
        index.store(self._key(planner_a, graphs), plan_a, graphs)

        solve_calls.clear()
        planner_b = RapPlanner(workload_b, cache=cache)
        assert index.lookup(self._key(planner_b, graphs_b), workload_b, graphs_b) is not None
        assert len(solve_calls) == 0

    def test_drifted_calibration_fingerprint_misses(self, tenant_a, tenant_b, tmp_path):
        graphs, _, workload = tenant_a
        graphs_b, _, workload_b = tenant_b
        cache = PlanCache(tmp_path)
        index = SharedPlanIndex(cache)
        planner_a = RapPlanner(workload, cache=cache)
        plan_a = planner_a.plan(graphs)
        index.store(self._key(planner_a, graphs), plan_a, graphs)

        class DriftedPredictor:
            is_fitted = True

            def fingerprint(self):
                return "drifted-calibration"

        planner_b = RapPlanner(workload_b, cache=cache)
        planner_b.set_predictor(DriftedPredictor())
        drifted_key = self._key(planner_b, graphs_b)
        assert drifted_key != self._key(planner_a, graphs)
        assert index.lookup(drifted_key, workload_b, graphs_b) is None
        assert index.misses == 1
