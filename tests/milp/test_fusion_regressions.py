"""Pinned fusion instances from the planner, plus brute force on small ones.

The instances are the exact fusion MILPs the planner solves for Table-3
plans 0/1 (both lower to the same instance) and ``--random-plan`` seeds 5
and 8 at batch 4096 on 4 GPUs. Every one is a set of dependency chains,
written here chain by chain in the planner's op order.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.milp.fusion_problem import FusionAssignment, FusionInstance, solve_fusion


def chains(*types_per_chain: str) -> FusionInstance:
    """Chains of space-separated op types, numbered in order."""
    op_types: list[str] = []
    deps: list[tuple[int, int]] = []
    for chain in types_per_chain:
        names = chain.split()
        base = len(op_types)
        op_types.extend(names)
        deps.extend((base + i, base + i + 1) for i in range(len(names) - 1))
    return FusionInstance(op_types=op_types, deps=deps)


TABLE3_PLAN_0_1 = chains(*["SigridHash FirstX Clamp"] * 6)
RANDOM_PLAN_5 = chains(
    "FillNull Logit FillNull",
    "FillNull Cast Logit BoxCox",
    "FillNull Logit BoxCox FillNull Cast Logit",
    "FillNull BoxCox",
)
RANDOM_PLAN_8 = chains(
    "FillNull BoxCox BoxCox",
    "FillNull FillNull",
    "FillNull Cast Cast Logit FillNull",
    "FillNull FillNull Cast Cast Logit FillNull",
    "FillNull Cast BoxCox Cast",
)


class TestPinnedPlannerInstances:
    def test_table3_plans_0_1_keep_their_steps(self):
        fused = solve_fusion(TABLE3_PLAN_0_1)
        assert fused.milp_status == "optimal"
        assert fused.steps == [0, 1, 2] * 6
        assert fused.fused_pair_count() == 45

    def test_random_plan_5_keeps_its_steps(self):
        fused = solve_fusion(RANDOM_PLAN_5)
        assert fused.milp_status == "optimal"
        assert fused.steps == [0, 2, 4, 0, 1, 2, 3, 0, 2, 3, 4, 5, 6, 0, 3]
        assert fused.fused_pair_count() == 13

    def test_random_plan_8_is_solved_to_optimality(self):
        fused = solve_fusion(RANDOM_PLAN_8)
        assert fused.method == "milp"
        assert fused.milp_status == "optimal"
        assert fused.fused_pair_count() == 21


def brute_force_pairs(instance: FusionInstance, num_steps: int) -> int:
    """Most co-scheduled same-type pairs over every valid step assignment."""
    preds = instance.predecessors()
    best = 0
    steps = [0] * instance.num_ops

    def assign(op: int) -> None:
        nonlocal best
        if op == instance.num_ops:
            best = max(best, FusionAssignment(instance, list(steps)).fused_pair_count())
            return
        lo = max((steps[p] + 1 for p in preds[op]), default=0)
        for step in range(lo, num_steps):
            steps[op] = step
            assign(op + 1)

    assign(0)
    return best


@st.composite
def small_instances(draw):
    """Up to 8 ops over 3 types; edges only run forward, so no cycles."""
    n = draw(st.integers(min_value=1, max_value=8))
    op_types = draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
    pairs = list(itertools.combinations(range(n), 2))
    deps = draw(st.lists(st.sampled_from(pairs), max_size=n, unique=True)) if pairs else []
    return FusionInstance(op_types=op_types, deps=sorted(deps))


@settings(max_examples=30, deadline=None)
@given(instance=small_instances())
def test_exact_fusion_matches_brute_force(instance):
    """Property: the MILP path finds the best assignment in its step window."""
    fused = solve_fusion(instance, exact=True)
    assert fused.method == "milp"
    assert fused.milp_status == "optimal"
    # build_fusion_milp's default window: dependency depth plus one slack step.
    window = max(instance.asap_levels()) + 2
    assert fused.fused_pair_count() == brute_force_pairs(instance, window)
