"""JSON only at the plan cache's disk boundary.

In-process reuse -- a warm ``plan()``, a replan that hits the cache, the
tenant-invariant index -- hands plans around, never their text. Only a
cache with a directory serializes, once per store, and decodes an entry
at most once per process.
"""

import pytest

import repro.core.serialization as serialization
from repro.core import PlanCache, RapPlanner
from repro.core.plan_cache import invariant_plan_key
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.service import SharedPlanIndex


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(0, rows=512)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=512)
    return workload, graphs


@pytest.fixture
def json_calls(monkeypatch):
    """Calls to ``plan_to_json`` / ``plan_from_json``, by function name."""
    calls = {"plan_to_json": 0, "plan_from_json": 0}
    for name in calls:
        original = getattr(serialization, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(serialization, name, counted)
    return calls


def _invariant_key(planner, graphs):
    return invariant_plan_key(
        planner.workload,
        graphs,
        planner.mapping_strategy,
        planner.fusion_enabled,
        planner.interleaving_enabled,
        planner.solver,
    )


def test_memory_only_reuse_never_touches_json(setting, json_calls):
    workload, graphs = setting
    cache = PlanCache()
    planner = RapPlanner(workload, cache=cache)
    cold = planner.plan(graphs)
    planner.plan(graphs)
    planner.replan(graphs, previous=cold)
    assert planner.stats.cache_hits == 2
    assert json_calls == {"plan_to_json": 0, "plan_from_json": 0}
    index = SharedPlanIndex(cache)
    index.store(_invariant_key(planner, graphs), cold, graphs)
    assert index.lookup(_invariant_key(planner, graphs), workload, graphs) is not None
    assert json_calls == {"plan_to_json": 0, "plan_from_json": 0}


def test_directory_serializes_once_per_put_and_decodes_once(setting, json_calls, tmp_path):
    workload, graphs = setting
    planner = RapPlanner(workload, cache=PlanCache(tmp_path))
    cold = planner.plan(graphs)
    for _ in range(3):
        planner.plan(graphs)
    assert json_calls == {"plan_to_json": 1, "plan_from_json": 0}
    SharedPlanIndex(planner.cache).store(_invariant_key(planner, graphs), cold, graphs)
    assert json_calls == {"plan_to_json": 2, "plan_from_json": 0}

    fresh = RapPlanner(workload, cache=PlanCache(tmp_path))
    for _ in range(3):
        fresh.plan(graphs)
    assert fresh.cache.stats.disk_hits == 1
    assert json_calls == {"plan_to_json": 2, "plan_from_json": 1}
