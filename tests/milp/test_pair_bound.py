"""The fusable-pair bound that proves a greedy fusion start optimal.

``solve_fusion``'s exact path counts the same-type op pairs with no
dependency path between them. Each pair contributes at most 1 to the
MILP objective, so when the greedy start fuses every one of them it is
returned as the proven optimum without building the MILP or calling
HiGHS. These tests pin that the shortcut changes no result and that the
planner's instances take the path they should.
"""

import pytest
from hypothesis import given, settings

from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.fusion_problem import (
    FusionAssignment,
    _assignment_from_milp,
    _fusable_pairs,
    _greedy_assignment,
    _local_improve,
    _warm_start_vector,
    build_fusion_milp,
    solve_fusion,
)

from .test_fusion_regressions import (
    RANDOM_PLAN_5,
    RANDOM_PLAN_8,
    TABLE3_PLAN_0_1,
    brute_force_pairs,
    chains,
    small_instances,
)


def full_path(instance) -> FusionAssignment:
    """The exact path without the bound: MILP, greedy warm start, HiGHS."""
    greedy = _local_improve(instance, _greedy_assignment(instance))
    problem, x = build_fusion_milp(instance)
    warm = _warm_start_vector(instance, problem, x, greedy)
    solution = BranchAndBoundSolver().solve(problem, warm_start=warm)
    steps = _assignment_from_milp(instance, x, solution)
    return FusionAssignment(instance, steps, method="milp", milp_status=solution.status)


def bound_fires(instance) -> bool:
    greedy = _local_improve(instance, _greedy_assignment(instance))
    pairs = sum(1 for _ in _fusable_pairs(instance))
    return FusionAssignment(instance, greedy).fused_pair_count() == pairs


@pytest.fixture
def solve_calls(monkeypatch):
    """A list that gains one entry per ``BranchAndBoundSolver.solve`` call."""
    calls = []
    solve = BranchAndBoundSolver.solve

    def counting_solve(self, *args, **kwargs):
        calls.append(args)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(BranchAndBoundSolver, "solve", counting_solve)
    return calls


@settings(max_examples=40, deadline=None)
@given(instance=small_instances())
def test_bound_shortcut_matches_the_full_path(instance):
    """Property: whenever the bound fires, the answer is the full path's."""
    fused = solve_fusion(instance, exact=True)
    if not bound_fires(instance):
        return
    full = full_path(instance)
    assert (fused.steps, fused.method, fused.milp_status) == (
        full.steps,
        full.method,
        full.milp_status,
    )


@settings(max_examples=30, deadline=None)
@given(instance=small_instances())
def test_pair_count_bounds_the_optimum(instance):
    """Property: no assignment fuses more pairs than the bound counts."""
    window = max(instance.asap_levels()) + 2
    assert brute_force_pairs(instance, window) <= sum(1 for _ in _fusable_pairs(instance))


def test_fusable_pairs_skip_dependent_pairs_in_type_order():
    # B0 -> A1 -> A2 makes (1, 2) dependent; type B is seen first.
    instance = chains("B A A", "A B")
    assert list(_fusable_pairs(instance)) == [(0, 4), (1, 3), (2, 3)]


class TestSolverCalls:
    def test_table3_plans_0_1_never_reach_the_solver(self, solve_calls):
        fused = solve_fusion(TABLE3_PLAN_0_1, exact=True)
        assert solve_calls == []
        assert (fused.method, fused.milp_status) == ("milp", "optimal")
        assert fused.fused_pair_count() == sum(1 for _ in _fusable_pairs(TABLE3_PLAN_0_1))

    @pytest.mark.parametrize("instance", [RANDOM_PLAN_5, RANDOM_PLAN_8], ids=["seed5", "seed8"])
    def test_random_plans_solve_once(self, solve_calls, instance):
        assert not bound_fires(instance)
        fused = solve_fusion(instance, exact=True)
        assert len(solve_calls) == 1
        assert (fused.method, fused.milp_status) == ("milp", "optimal")
