#!/usr/bin/env python
"""Explore horizontal-fusion planning: exact MILP vs greedy heuristic.

Reproduces the §6.1 conflict case interactively: two chains order FirstX
and SigridHash oppositely, so the two fusion opportunities cannot both be
taken. Greedy ASAP scheduling finds neither; the MILP (branch-and-bound
over the linearized quadratic objective) delays one chain and fuses one
pair. Then scales up to show the heuristic on a plan-sized instance.

Run:  python examples/fusion_explorer.py
"""

import time

from repro.experiments.reporting import format_table
from repro.milp import FusionInstance, build_fusion_milp, solve_fusion
from repro.preprocessing import build_plan
from repro.core import build_fusion_instance


def show_assignment(title: str, assignment) -> None:
    rows = [
        [op_type, step, len(members), members]
        for op_type, step, members in assignment.ordered_groups()
    ]
    print(
        format_table(
            ["op type", "time step", "degree", "member ops"],
            rows,
            title=(
                f"{title}: {assignment.fused_pair_count()} co-scheduled pairs, "
                f"quadratic objective {assignment.quadratic_objective()} "
                f"(method: {assignment.method})"
            ),
        )
    )
    print()


def main() -> None:
    # --- The paper's conflict case (Fig. 7 discussion) -----------------
    conflict = FusionInstance(
        op_types=["FirstX", "SigridHash", "SigridHash", "FirstX"],
        deps=[(0, 1), (2, 3)],  # FirstX->SigridHash vs SigridHash->FirstX
    )
    greedy = solve_fusion(conflict, exact=False)
    exact = solve_fusion(conflict, exact=True)
    show_assignment("Greedy ASAP on the conflict case", greedy)
    show_assignment("Exact MILP on the conflict case", exact)

    problem, _ = build_fusion_milp(conflict)
    print(
        f"MILP size: {problem.num_vars} variables, "
        f"{problem.num_constraints} constraints (after linearization)\n"
    )

    # --- Plan-scale heuristic fusion ------------------------------------
    for plan_id in (1, 2, 3):
        graphs, _ = build_plan(plan_id, rows=4096)
        instance = build_fusion_instance(list(graphs))
        start = time.perf_counter()
        assignment = solve_fusion(instance)  # auto: heuristic at this size
        elapsed = time.perf_counter() - start
        print(
            f"Plan {plan_id}: {instance.num_ops} ops -> "
            f"{len(assignment.groups())} fused kernels "
            f"(max degree {assignment.max_fusion_degree()}, "
            f"{assignment.fused_pair_count()} pairs) in {elapsed * 1000:.0f} ms"
        )


if __name__ == "__main__":
    main()
