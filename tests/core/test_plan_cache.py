"""Correctness tests for the planner fast path (plan cache + replan)."""

import pytest

from repro.core import drift_graph_set
from repro.core.plan_cache import (
    PlanCache,
    graph_set_fingerprint,
    graph_structure_key,
    plan_cache_key,
    workload_fingerprint,
)
from repro.core.planner import RapPlanner
from repro.core.serialization import plan_to_json
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.preprocessing import build_plan


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(1, rows=1024)
    model = model_for_plan(graphs, schema)
    workload = TrainingWorkload(model, num_gpus=2, local_batch=1024)
    return graphs, workload


def make_key(workload, graphs, solver=None, **overrides):
    kwargs = dict(
        mapping_strategy="rap",
        fusion_enabled=True,
        interleaving_enabled=True,
        solver=solver or BranchAndBoundSolver(),
    )
    kwargs.update(overrides)
    return plan_cache_key(workload, graphs, **kwargs)


class TestBitIdentity:
    """Cached and parallel plans must be indistinguishable from the
    sequential cold search -- byte for byte."""

    def test_warm_hit_is_bit_identical(self, setting):
        graphs, workload = setting
        planner = RapPlanner(workload, cache=PlanCache())
        cold = planner.plan(graphs)
        warm = planner.plan(graphs)
        assert planner.stats.cache_hits == 1
        assert plan_to_json(warm) == plan_to_json(cold)

    def test_disk_tier_is_bit_identical(self, setting, tmp_path):
        graphs, workload = setting
        cold = RapPlanner(workload, cache=PlanCache(tmp_path)).plan(graphs)
        # A fresh planner over the same directory models a process restart.
        fresh = RapPlanner(workload, cache=PlanCache(tmp_path))
        warm = fresh.plan(graphs)
        assert fresh.cache.stats.hits == 1
        assert plan_to_json(warm) == plan_to_json(cold)

    def test_parallel_search_is_bit_identical(self, setting):
        graphs, workload = setting
        sequential = RapPlanner(workload).plan(graphs)
        parallel = RapPlanner(workload, parallel_search=True).plan(graphs)
        assert plan_to_json(parallel) == plan_to_json(sequential)

    def test_cached_plan_predicts_same_exposure(self, setting):
        graphs, workload = setting
        planner = RapPlanner(workload, cache=PlanCache())
        cold = planner.plan(graphs)
        warm = planner.plan(graphs)
        assert warm.predicted_exposed_us == cold.predicted_exposed_us


class TestHitIsolation:
    """A memory hit is the caller's own plan: bound to the caller's
    workload and graph set, in containers nothing else holds."""

    def test_hits_are_bound_and_isolated(self, setting):
        graphs, workload = setting
        cache = PlanCache()
        planner = RapPlanner(workload, cache=cache)
        cold = planner.plan(graphs)
        expected = plan_to_json(cold)
        key = planner._cache_key(graphs)
        # A second caller with equal content under its own objects.
        other_graphs, schema = build_plan(1, rows=1024)
        other_workload = TrainingWorkload(
            model_for_plan(other_graphs, schema), num_gpus=2, local_batch=1024
        )
        assert planner._cache_key(other_graphs) == key

        first = cache.get(key, workload, graphs)
        second = cache.get(key, other_workload, other_graphs)
        assert first.workload is workload and first.graph_set is graphs
        assert second.workload is other_workload and second.graph_set is other_graphs

        for per_gpu in first.assignments_per_gpu:
            for kernels in per_gpu.values():
                kernels.clear()
        first.trailing_per_gpu[0].clear()
        first.mapping.placements.clear()
        assert plan_to_json(second) == expected
        assert plan_to_json(cache.get(key, workload, graphs)) == expected
        assert plan_to_json(cache._memory[key]) == expected
        assert plan_to_json(cold) == expected


class TestInvalidation:
    """Any input the search consumes must change the cache key."""

    def test_kernel_change_invalidates(self, setting):
        graphs, workload = setting
        base = make_key(workload, graphs)
        drifted = drift_graph_set(graphs, 1.5)
        assert make_key(workload, drifted) != base
        assert graph_set_fingerprint(drifted) != graph_set_fingerprint(graphs)

    def test_capacity_change_invalidates(self, setting):
        graphs, workload = setting
        other = TrainingWorkload(workload.config, num_gpus=2, local_batch=2048)
        assert workload_fingerprint(other) != workload_fingerprint(workload)
        assert make_key(other, graphs) != make_key(workload, graphs)

    def test_solver_limit_change_invalidates(self, setting):
        graphs, workload = setting
        base = make_key(workload, graphs)
        limited = BranchAndBoundSolver(node_limit=5)
        assert make_key(workload, graphs, solver=limited) != base

    def test_planner_knob_change_invalidates(self, setting):
        graphs, workload = setting
        base = make_key(workload, graphs)
        assert make_key(workload, graphs, fusion_enabled=False) != base
        assert make_key(workload, graphs, mapping_strategy="data_parallel") != base
        assert make_key(workload, graphs, interleaving_enabled=False) != base

    def test_code_version_invalidates(self, setting, monkeypatch):
        graphs, workload = setting
        base = make_key(workload, graphs)
        monkeypatch.setattr(
            "repro.core.plan_cache.PLANNER_CODE_VERSION", "rap-planner-next"
        )
        assert make_key(workload, graphs) != base

    def test_planner_respects_invalidation(self, setting):
        """End to end: a drifted graph set re-searches instead of hitting."""
        graphs, workload = setting
        planner = RapPlanner(workload, cache=PlanCache())
        planner.plan(graphs)
        planner.plan(drift_graph_set(graphs, 2.0))
        assert planner.stats.cache_hits == 0
        assert planner.stats.cache_misses == 2

    def test_torn_disk_entry_is_a_miss(self, setting, tmp_path):
        graphs, workload = setting
        RapPlanner(workload, cache=PlanCache(tmp_path)).plan(graphs)
        for f in tmp_path.glob("*.plan.json"):
            f.write_text(f.read_text()[:40])
        fresh = RapPlanner(workload, cache=PlanCache(tmp_path))
        plan = fresh.plan(graphs)
        assert plan is not None
        assert fresh.cache.stats.hits == 0


class TestIncrementalReplan:
    def test_structure_key_ignores_drift(self, setting):
        graphs, _ = setting
        drifted = drift_graph_set(graphs, 3.0)
        for before, after in zip(graphs, drifted):
            assert graph_structure_key(after) == graph_structure_key(before)

    def test_drift_replans_incrementally(self, setting):
        graphs, workload = setting
        planner = RapPlanner(workload)
        base = planner.plan(graphs)
        replanned = planner.replan(drift_graph_set(graphs, 1.5), previous=base)
        assert planner.stats.incremental_replans == 1
        assert planner.stats.full_replans == 0
        assert len(replanned.assignments_per_gpu) == workload.num_gpus

    def test_replan_reuses_fusion_solves(self, setting):
        """Drift rescales latencies, not structure: every fusion instance
        the replan lowers is a memo hit, so no MILP re-runs."""
        graphs, workload = setting
        planner = RapPlanner(workload)
        base = planner.plan(graphs)
        hits_before = planner.fusion.memo_hits
        memo_size = len(planner.fusion._memo)
        planner.replan(drift_graph_set(graphs, 1.5), previous=base)
        assert planner.fusion.memo_hits > hits_before
        assert len(planner.fusion._memo) == memo_size  # nothing new solved

    def test_new_feature_forces_full_replan(self, setting):
        graphs, workload = setting
        other_graphs, _ = build_plan(2, rows=1024)
        planner = RapPlanner(workload)
        base = planner.plan(graphs)
        planner.replan(other_graphs, previous=base)
        assert planner.stats.full_replans == 1
        assert planner.stats.incremental_replans == 0

    def test_replan_without_previous_is_plain_plan(self, setting):
        graphs, workload = setting
        planner = RapPlanner(workload)
        plan = planner.replan(graphs, previous=None)
        assert plan.predicted_exposed_us == RapPlanner(workload).plan(graphs).predicted_exposed_us
        assert planner.stats.incremental_replans == 0

    def test_replan_hits_cache_for_unchanged_instance(self, setting):
        graphs, workload = setting
        planner = RapPlanner(workload, cache=PlanCache())
        base = planner.plan(graphs)
        again = planner.replan(graphs, previous=base)
        assert planner.stats.cache_hits == 1
        assert plan_to_json(again) == plan_to_json(base)

    def test_incremental_replan_quality(self, setting):
        """The warm-started search lands within a whisker of from-scratch."""
        graphs, workload = setting
        planner = RapPlanner(workload)
        base = planner.plan(graphs)
        drifted = drift_graph_set(graphs, 1.3)
        incremental = planner.replan(drifted, previous=base)
        scratch = RapPlanner(workload).plan(drifted)
        assert incremental.predicted_exposed_us <= scratch.predicted_exposed_us * 1.10 + 1.0


class TestCacheTelemetry:
    """Satellite: hit/miss/disk-tier accounting flows into the registry."""

    def test_disk_hits_counted_separately(self, setting, tmp_path):
        graphs, workload = setting
        RapPlanner(workload, cache=PlanCache(tmp_path)).plan(graphs)
        fresh = RapPlanner(workload, cache=PlanCache(tmp_path))
        fresh.plan(graphs)  # disk hit (fresh process memory)
        fresh.plan(graphs)  # memory hit
        assert fresh.cache.stats.hits == 2
        assert fresh.cache.stats.disk_hits == 1
        assert fresh.cache.stats.to_dict()["disk_hits"] == 1

    def test_bind_metrics_mirrors_counts(self, setting, tmp_path):
        from repro.telemetry import MetricsRegistry

        graphs, workload = setting
        RapPlanner(workload, cache=PlanCache(tmp_path)).plan(graphs)
        registry = MetricsRegistry()
        cache = PlanCache(tmp_path)
        cache.bind_metrics(registry, cache="plan")
        planner = RapPlanner(workload, cache=cache)
        planner.plan(graphs)  # disk hit
        planner.plan(graphs)  # memory hit
        by_labels = {}
        for name, _, _, children in registry.families():
            for child in children:
                by_labels[(name, tuple(sorted(child.labels.items())))] = child.value
        assert by_labels[
            ("rap_cache_hits_total", (("cache", "plan"), ("tier", "disk")))
        ] == 1.0
        assert by_labels[
            ("rap_cache_hits_total", (("cache", "plan"), ("tier", "memory")))
        ] == 1.0

    def test_unbound_cache_needs_no_registry(self, setting):
        graphs, workload = setting
        planner = RapPlanner(workload, cache=PlanCache())
        planner.plan(graphs)
        planner.plan(graphs)
        assert planner.stats.cache_hits == 1  # no registry, no crash


class TestPredictorFingerprintKeys:
    def test_fingerprint_changes_key(self, setting):
        graphs, workload = setting
        base = make_key(workload, graphs)
        calibrated = make_key(workload, graphs, predictor_fingerprint="calibrated:x:y")
        assert base != calibrated

    def test_same_fingerprint_same_key(self, setting):
        graphs, workload = setting
        a = make_key(workload, graphs, predictor_fingerprint="f")
        b = make_key(workload, graphs, predictor_fingerprint="f")
        assert a == b

    def test_recalibrated_planner_does_not_reuse_stale_plan(self, setting):
        from repro.telemetry import CalibrationSample, ResidualModel, TelemetrySession

        graphs, workload = setting
        planner = RapPlanner(workload, cache=PlanCache())
        planner.plan(graphs)
        telemetry = TelemetrySession(residual=ResidualModel())
        for i in range(16):
            telemetry.residual.record(
                CalibrationSample("Clamp", 100.0, 250.0, iteration=i)
            )
        planner.set_predictor(telemetry.calibrated_predictor(None))
        planner.plan(graphs)
        assert planner.stats.cache_hits == 0
        assert planner.stats.cache_misses == 2
