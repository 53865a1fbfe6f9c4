"""Planner fast-path benchmark: cold search vs warm-cache replan.

The acceptance bar for the fast path -- a warm plan-cache replan of an
unchanged workload must be at least 5x faster than the cold search that
populated it, while producing a bit-identical plan. The measured numbers
are attached to the pytest-benchmark JSON (``--benchmark-json``) so CI can
archive them per commit.
"""

import time

import pytest

from repro.core import PlanCache, RapPlanner, drift_graph_set, plan_to_json
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan

#: The warm-over-cold bar the fast path must clear.
MIN_WARM_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(3, rows=4096)
    model = model_for_plan(graphs, schema)
    workload = TrainingWorkload(model, num_gpus=4, local_batch=4096)
    return graphs, workload


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def test_bench_warm_cache_speedup(benchmark, setting):
    """Warm plan-cache replans are >= 5x faster and bit-identical."""
    graphs, workload = setting
    planner = RapPlanner(workload, cache=PlanCache())
    cold_plan, cold_s = _timed(lambda: planner.plan(graphs))

    warm_plan = benchmark(planner.plan, graphs)

    assert planner.stats.cache_hits >= 1
    assert plan_to_json(warm_plan) == plan_to_json(cold_plan)
    warm_s = benchmark.stats.stats.mean
    speedup = cold_s / warm_s
    benchmark.extra_info["cold_s"] = cold_s
    benchmark.extra_info["warm_s"] = warm_s
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm replan only {speedup:.1f}x faster than cold "
        f"({warm_s * 1e3:.2f} ms vs {cold_s * 1e3:.2f} ms)"
    )


def test_bench_disk_tier_speedup(benchmark, setting, tmp_path):
    """A process restart (fresh planner, same cache dir) still clears 5x."""
    graphs, workload = setting
    _, cold_s = _timed(lambda: RapPlanner(workload, cache=PlanCache(tmp_path)).plan(graphs))

    def restart_and_plan():
        return RapPlanner(workload, cache=PlanCache(tmp_path)).plan(graphs)

    benchmark(restart_and_plan)
    warm_s = benchmark.stats.stats.mean
    speedup = cold_s / warm_s
    benchmark.extra_info["cold_s"] = cold_s
    benchmark.extra_info["warm_s"] = warm_s
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= MIN_WARM_SPEEDUP


#: Timed incremental replans, each on its own drift scale.
REPLAN_ROUNDS = 5


def test_bench_incremental_replan(benchmark, setting):
    """Times drifted replans, each a distinct incremental replan.

    Uniform drift misses the plan cache (latencies changed) but keeps the
    graph structure, so the structure memo and the warm-started mapping do
    the work. Every round replans a graph set drifted by its own scale, so
    no round is a replan-memo hit: the test checks that each round counts
    as an incremental replan and that the last one's exposed latency is
    within 10% of a from-scratch search. Speed is recorded
    (``replan_s``/``scratch_s``), not gated: a drifted set is new graph
    objects, so a replan re-prices and re-fuses like a cold search
    (CHANGES.md, ``FOUND:`` on this test).
    """
    graphs, workload = setting
    planner = RapPlanner(workload)
    base, scratch_s = _timed(lambda: planner.plan(graphs))
    drifted = []

    def next_drift():
        drifted.append(drift_graph_set(graphs, 1.4 + 0.05 * len(drifted)))
        return (drifted[-1],), {"previous": base}

    incremental, memo_hits = planner.stats.incremental_replans, planner.stats.memo_hits
    replanned = benchmark.pedantic(
        planner.replan, setup=next_drift, rounds=REPLAN_ROUNDS, iterations=1
    )

    assert drifted
    assert planner.stats.incremental_replans == incremental + len(drifted)
    assert planner.stats.memo_hits == memo_hits
    replan_s = benchmark.stats.stats.mean
    scratch = RapPlanner(workload).plan(drifted[-1])
    benchmark.extra_info["scratch_s"] = scratch_s
    benchmark.extra_info["replan_s"] = replan_s
    assert replanned.predicted_exposed_us <= scratch.predicted_exposed_us * 1.10 + 1.0
