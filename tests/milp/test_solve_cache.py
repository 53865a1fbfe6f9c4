"""Tests for the content-addressed MILP solve cache."""

import json

import numpy as np
import pytest

from repro.milp.branch_and_bound import BranchAndBoundSolver, MilpSolution
from repro.milp.model import MilpProblem
from repro.milp.solve_cache import SolveCache, problem_fingerprint


def knapsack(values, weights, capacity) -> MilpProblem:
    p = MilpProblem(maximize=True)
    xs = [p.add_binary(f"x{i}") for i in range(len(values))]
    p.add_constraint({x: w for x, w in zip(xs, weights)}, "<=", capacity)
    p.set_objective({x: v for x, v in zip(xs, values)})
    return p


def fingerprint(problem, **overrides) -> str:
    kwargs = dict(
        node_limit=100, time_limit_s=10.0, integrality_tol=1e-6, gap_tol=1e-9
    )
    kwargs.update(overrides)
    return problem_fingerprint(problem, **kwargs)


class TestProblemFingerprint:
    def test_deterministic(self):
        p = knapsack([5, 4], [3, 3], 3)
        assert fingerprint(p) == fingerprint(knapsack([5, 4], [3, 3], 3))

    def test_changes_with_problem_content(self):
        base = fingerprint(knapsack([5, 4], [3, 3], 3))
        assert fingerprint(knapsack([5, 9], [3, 3], 3)) != base  # objective
        assert fingerprint(knapsack([5, 4], [3, 1], 3)) != base  # constraint
        assert fingerprint(knapsack([5, 4], [3, 3], 4)) != base  # rhs

    def test_changes_with_solver_limits(self):
        p = knapsack([5, 4], [3, 3], 3)
        base = fingerprint(p)
        assert fingerprint(p, node_limit=99) != base
        assert fingerprint(p, time_limit_s=1.0) != base
        assert fingerprint(p, integrality_tol=1e-4) != base
        assert fingerprint(p, gap_tol=1e-6) != base

    def test_changes_with_solver_version(self, monkeypatch):
        p = knapsack([5, 4], [3, 3], 3)
        base = fingerprint(p)
        monkeypatch.setattr("repro.milp.solve_cache.SOLVER_CACHE_VERSION", 99)
        assert fingerprint(p) != base

    def test_changes_with_warm_start(self):
        p = knapsack([5, 4], [3, 3], 3)
        assert fingerprint(p) != fingerprint(p, warm_start=np.array([1.0, 0.0]))
        assert fingerprint(p, warm_start=np.array([1.0, 0.0])) != fingerprint(
            p, warm_start=np.array([0.0, 1.0])
        )


class TestSolveCache:
    def test_hit_is_equivalent_to_resolve(self):
        cache = SolveCache()
        solver = BranchAndBoundSolver(cache=cache)
        p = knapsack([5, 4], [3, 3], 3)
        first = solver.solve(p)
        second = solver.solve(p)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert second.status == first.status
        assert second.objective == first.objective
        assert second.gap == first.gap
        np.testing.assert_array_equal(second.x, first.x)

    def test_different_problems_do_not_collide(self):
        cache = SolveCache()
        solver = BranchAndBoundSolver(cache=cache)
        a = solver.solve(knapsack([5, 4], [3, 3], 3))
        b = solver.solve(knapsack([9, 4], [3, 3], 3))
        assert a.objective == pytest.approx(5.0)
        assert b.objective == pytest.approx(9.0)
        assert cache.stats.hits == 0

    def test_disk_tier_survives_new_process_state(self, tmp_path):
        p = knapsack([5, 4], [3, 3], 3)
        first = BranchAndBoundSolver(cache=SolveCache(tmp_path)).solve(p)
        # A fresh cache over the same directory models a process restart.
        warm_cache = SolveCache(tmp_path)
        second = BranchAndBoundSolver(cache=warm_cache).solve(p)
        assert warm_cache.stats.hits == 1
        assert second.objective == first.objective
        np.testing.assert_array_equal(second.x, first.x)

    def test_torn_disk_entry_is_a_miss(self, tmp_path):
        p = knapsack([5, 4], [3, 3], 3)
        BranchAndBoundSolver(cache=SolveCache(tmp_path)).solve(p)
        for f in tmp_path.glob("*.milp.json"):
            f.write_text(f.read_text()[:10])  # simulate a torn write
        cache = SolveCache(tmp_path)
        sol = BranchAndBoundSolver(cache=cache).solve(p)
        assert sol.status == "optimal"
        assert cache.stats.misses == 1

    def test_none_solution_fields_round_trip(self, tmp_path):
        cache = SolveCache(tmp_path)
        cache.put("k", MilpSolution("infeasible", None, None))
        hit = SolveCache(tmp_path).get("k")
        assert hit.status == "infeasible"
        assert hit.x is None and hit.objective is None and hit.gap is None

    def test_payloads_are_json(self, tmp_path):
        cache = SolveCache(tmp_path)
        BranchAndBoundSolver(cache=cache).solve(knapsack([5], [3], 3))
        files = list(tmp_path.glob("*.milp.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert set(payload) == {"status", "x", "objective", "nodes_explored", "gap"}


class TestSolveCacheTelemetry:
    def test_disk_hits_counted_separately(self, tmp_path):
        p = knapsack([5, 4], [3, 3], 3)
        BranchAndBoundSolver(cache=SolveCache(tmp_path)).solve(p)
        warm = SolveCache(tmp_path)
        solver = BranchAndBoundSolver(cache=warm)
        solver.solve(p)  # disk hit
        solver.solve(p)  # memory hit
        assert warm.stats.hits == 2
        assert warm.stats.disk_hits == 1
        assert warm.stats.to_dict()["disk_hits"] == 1

    def test_bind_metrics_mirrors_counts(self, tmp_path):
        from repro.telemetry import MetricsRegistry

        p = knapsack([5, 4], [3, 3], 3)
        BranchAndBoundSolver(cache=SolveCache(tmp_path)).solve(p)
        registry = MetricsRegistry()
        warm = SolveCache(tmp_path)
        warm.bind_metrics(registry, cache="milp")
        solver = BranchAndBoundSolver(cache=warm)
        solver.solve(p)
        solver.solve(p)
        values = {}
        for name, _, _, children in registry.families():
            for child in children:
                values[(name, child.labels.get("tier"))] = child.value
        assert values[("rap_cache_hits_total", "disk")] == 1.0
        assert values[("rap_cache_hits_total", "memory")] == 1.0
