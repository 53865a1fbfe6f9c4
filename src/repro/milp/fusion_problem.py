"""The paper's horizontal-fusion MILP (§6.2) and its solution strategies.

An instance is a set of preprocessing operations with types and dependency
edges; the decision is which *time step* each operation executes in. All
same-type operations sharing a time step are horizontally fused into one
kernel. Constraints are the paper's Eq. 1 (each op runs exactly once) and
Eq. 2 (an op runs strictly after everything it depends on); the objective
Eq. 3-4 maximizes the summed squared fusion degrees, which after
linearization (see :mod:`repro.milp.linearize`) is exactly "maximize the
number of co-scheduled same-type pairs".

Two solution paths:

- **Exact**: proves the greedy assignment optimal or improves on it. When
  it already fuses every same-type pair with no dependency path between
  them, that pair count bounds the optimum and nothing else runs;
  otherwise the MILP goes to
  :class:`~repro.milp.branch_and_bound.BranchAndBoundSolver`, warm-started
  from the greedy assignment: when the root LP bound proves it optimal it
  is kept, otherwise HiGHS branch and cut searches for a strictly better
  one. Used for instances of up to :data:`EXACT_OP_LIMIT` ops and in tests,
  where optimality can be asserted.
- **Heuristic**: ASAP level assignment plus a pair-improving local search.
  Used for plan-scale instances (Plan 3 has 1548 ops), the same way the
  paper would bound Gurobi's solve time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .branch_and_bound import BranchAndBoundSolver, MilpSolution
from .linearize import add_binary_product
from .model import MilpProblem, Variable

__all__ = ["FusionInstance", "FusionAssignment", "solve_fusion", "build_fusion_milp"]

#: The largest instance ``solve_fusion(exact=None)`` sends down the exact path.
EXACT_OP_LIMIT = 20


@dataclass
class FusionInstance:
    """A horizontal-fusion problem: op types plus dependency edges."""

    op_types: list[str]
    deps: list[tuple[int, int]] = field(default_factory=list)  # (producer, consumer)

    def __post_init__(self) -> None:
        n = len(self.op_types)
        for i, j in self.deps:
            if not (0 <= i < n and 0 <= j < n):
                raise IndexError(f"dependency ({i}, {j}) out of range for {n} ops")
            if i == j:
                raise ValueError(f"op {i} cannot depend on itself")

    @property
    def num_ops(self) -> int:
        return len(self.op_types)

    def successors(self) -> list[list[int]]:
        succ: list[list[int]] = [[] for _ in range(self.num_ops)]
        for i, j in self.deps:
            succ[i].append(j)
        return succ

    def predecessors(self) -> list[list[int]]:
        pred: list[list[int]] = [[] for _ in range(self.num_ops)]
        for i, j in self.deps:
            pred[j].append(i)
        return pred

    def asap_levels(self) -> list[int]:
        """Longest-path depth of each op (0 for roots). Raises on cycles."""
        n = self.num_ops
        indeg = [0] * n
        succ = self.successors()
        for _, j in self.deps:
            indeg[j] += 1
        level = [0] * n
        frontier = [i for i in range(n) if indeg[i] == 0]
        seen = 0
        while frontier:
            node = frontier.pop()
            seen += 1
            deeper = level[node] + 1
            for nxt in succ[node]:
                if deeper > level[nxt]:
                    level[nxt] = deeper
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    frontier.append(nxt)
        if seen != n:
            raise ValueError("dependency graph contains a cycle")
        return level

    def reachable_pairs(self) -> set[tuple[int, int]]:
        """All (ancestor, descendant) pairs under the transitive closure."""
        succ = self.successors()
        closed: set[tuple[int, int]] = set()
        for start in range(self.num_ops):
            stack = list(succ[start])
            seen: set[int] = set()
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                closed.add((start, node))
                stack.extend(succ[node])
        return closed


@dataclass
class FusionAssignment:
    """A solved fusion plan: each op's time step."""

    instance: FusionInstance
    steps: list[int]
    method: str = "heuristic"
    milp_status: str | None = None

    def __post_init__(self) -> None:
        if len(self.steps) != self.instance.num_ops:
            raise ValueError("steps length does not match op count")
        self.validate()

    def validate(self) -> None:
        for i, j in self.instance.deps:
            if self.steps[j] <= self.steps[i]:
                raise ValueError(
                    f"dependency violated: op {j} at step {self.steps[j]} "
                    f"must follow op {i} at step {self.steps[i]}"
                )

    @property
    def num_steps(self) -> int:
        return max(self.steps) + 1 if self.steps else 0

    def groups(self) -> dict[tuple[str, int], list[int]]:
        """Fusion groups: (op type, time step) -> member op indices."""
        out: dict[tuple[str, int], list[int]] = {}
        for idx, key in enumerate(zip(self.instance.op_types, self.steps)):
            members = out.get(key)
            if members is None:
                out[key] = [idx]
            else:
                members.append(idx)
        return out

    def ordered_groups(self) -> list[tuple[str, int, list[int]]]:
        """Groups sorted by time step (the execution order of fused kernels)."""
        return sorted(
            [(t, s, members) for (t, s), members in self.groups().items()],
            key=_step_then_type,
        )

    def fused_pair_count(self) -> int:
        """Number of co-scheduled same-type pairs (the linearized objective)."""
        return sum(len(m) * (len(m) - 1) // 2 for m in self.groups().values())

    def quadratic_objective(self) -> int:
        """The paper's Eq. 3-4 objective: sum of squared group sizes."""
        return sum(len(m) ** 2 for m in self.groups().values())

    def max_fusion_degree(self) -> int:
        return max((len(m) for m in self.groups().values()), default=0)


_step_then_type = itemgetter(1, 0)


# ----------------------------------------------------------------------
# Greedy / local-search path
# ----------------------------------------------------------------------


def _greedy_assignment(instance: FusionInstance) -> list[int]:
    """ASAP levels: fuse everything that becomes ready at the same depth."""
    return instance.asap_levels()


def _local_improve(instance: FusionInstance, steps: list[int], max_rounds: int = 6) -> list[int]:
    """Move single ops between steps when it grows the co-scheduled pair count.

    Movement is bounded by each op's dependency window: strictly after all
    predecessors, strictly before all successors. This captures the paper's
    conflict cases (e.g. ``FirstX -> SigridHash`` vs ``SigridHash ->
    FirstX`` chains) where ASAP is suboptimal.

    Each sweep visits the ops in index order and moves an op to the first
    step of its window with the largest positive gain. A step with no op of
    the same type never gains (the move would only lose pairs), so only the
    occupied steps of the op's type are scanned, in ascending order, from
    per-type step counts that the sweep keeps current.

    An op's outcome depends only on its own step, its neighbours' steps
    (its window) and its type's step counts. An op that stayed put is
    therefore skipped until one of its neighbours or another op of its
    type moves: ``settled[op]`` holds its type's move count when it last
    stayed put, and a move clears its neighbours' entries. The moves, their
    tie-breaks and the round count are those of scanning every op.
    """
    steps = list(steps)
    step_of = steps.__getitem__
    pred = instance.predecessors()
    succ = instance.successors()
    op_types = instance.op_types
    max_step = max(steps) + 1 if steps else 0

    counts: dict[str, dict[int, int]] = {}
    for op_type, step in zip(op_types, steps):
        per_step = counts.setdefault(op_type, {})
        per_step[step] = per_step.get(step, 0) + 1
    occupied = {op_type: sorted(per_step) for op_type, per_step in counts.items()}
    moves = dict.fromkeys(counts, 0)
    settled: list[int | None] = [None] * len(steps)
    for _ in range(max_rounds):
        improved = False
        for op, op_type in enumerate(op_types):
            moved = moves[op_type]
            if settled[op] == moved:
                continue
            settled[op] = moved
            type_steps = occupied[op_type]
            if len(type_steps) == 1:
                continue  # every op of this type shares the op's step
            current = steps[op]
            before, after = pred[op], succ[op]
            # Most ops have at most one predecessor and one successor.
            if len(before) == 1:
                lo = steps[before[0]] + 1
            else:
                lo = max(map(step_of, before)) + 1 if before else 0
            if len(after) == 1:
                hi = steps[after[0]] - 1
            else:
                hi = min(map(step_of, after)) - 1 if after else max_step
            if lo > hi:
                continue
            per_step = counts[op_type]
            # Pairs gained at destination minus pairs lost at source.
            lost = per_step[current] - 1
            best_step = current
            best_gain = 0
            for cand in type_steps[bisect_left(type_steps, lo):bisect_right(type_steps, hi)]:
                gain = per_step[cand] - lost
                if gain > best_gain and cand != current:
                    best_gain = gain
                    best_step = cand
            if best_step != current:
                if lost:
                    per_step[current] = lost
                else:
                    del per_step[current]
                    type_steps.remove(current)
                per_step[best_step] += 1
                steps[op] = best_step
                moves[op_type] = moved + 1
                for neighbour in before:
                    settled[neighbour] = None
                for neighbour in after:
                    settled[neighbour] = None
                improved = True
        if not improved:
            break
    # Compact step indices.
    used = sorted(set(steps))
    remap = {s: i for i, s in enumerate(used)}
    return [remap[s] for s in steps]


# ----------------------------------------------------------------------
# Exact MILP path
# ----------------------------------------------------------------------


def build_fusion_milp(instance: FusionInstance) -> tuple[MilpProblem, list[list[Variable]]]:
    """Build the paper's fusion MILP with the linearized quadratic objective.

    Returns the problem and the ``x[i][t]`` assignment variable matrix.
    The step count is the dependency-depth bound plus one slack step --
    the slack is what lets the solver delay one chain to align
    fusable ops across chains (the §6.1 conflict case needs it) -- while
    keeping the variable count far below the paper's N x N formulation.
    """
    n = instance.num_ops
    levels = instance.asap_levels()
    t_max = max(levels) + 2 if levels else 1

    problem = MilpProblem(name="horizontal_fusion", maximize=True)
    x = [[problem.add_binary(f"x_{i}_{t}") for t in range(t_max)] for i in range(n)]

    # Eq. 1: each operation executes exactly once.
    for i in range(n):
        problem.add_constraint({x[i][t]: 1.0 for t in range(t_max)}, "==", 1.0, name=f"once_{i}")

    # Eq. 2: strict ordering along dependencies.
    for i, j in instance.deps:
        coeffs: dict[Variable, float] = {}
        for t in range(t_max):
            coeffs[x[j][t]] = float(t + 1)
        for t in range(t_max):
            coeffs[x[i][t]] = coeffs.get(x[i][t], 0.0) - float(t + 1)
        problem.add_constraint(coeffs, ">=", 1.0, name=f"dep_{i}_{j}")

    # Eq. 3-4 linearized: maximize co-scheduled same-type pairs.
    for a, b in _fusable_pairs(instance):
        for t in range(t_max):
            y = add_binary_product(problem, x[a][t], x[b][t], f"y_{a}_{b}_{t}")
            problem.add_objective_term(y, 1.0)
    return problem, x


def _fusable_pairs(instance: FusionInstance) -> Iterator[tuple[int, int]]:
    """Same-type op pairs ``(a, b)``, ``a < b``, with no dependency path
    between them, by type (in first-seen order), then member position.

    These are exactly the pairs that get product variables in
    :func:`build_fusion_milp` (a dependent pair can never share a step), so
    their count is an upper bound on the MILP optimum.
    """
    dependent = instance.reachable_pairs()
    by_type: dict[str, list[int]] = {}
    for idx, op_type in enumerate(instance.op_types):
        by_type.setdefault(op_type, []).append(idx)
    for members in by_type.values():
        for a_pos, a in enumerate(members):
            for b in members[a_pos + 1 :]:
                if (a, b) not in dependent and (b, a) not in dependent:
                    yield a, b


def _assignment_from_milp(
    instance: FusionInstance,
    x: list[list[Variable]],
    solution: MilpSolution,
) -> list[int]:
    steps = []
    for i in range(instance.num_ops):
        row = [solution.x[var.index] for var in x[i]]
        steps.append(int(np.argmax(row)))
    return steps


def _warm_start_vector(instance: FusionInstance, problem: MilpProblem, x, steps: list[int]) -> np.ndarray:
    vec = np.zeros(problem.num_vars)
    for i, step in enumerate(steps):
        vec[x[i][step].index] = 1.0
    # Set product variables consistently (y = x1 * x2).
    for var in problem.variables:
        if var.integer or not var.name.startswith("y_"):
            continue
        _, a, b, t = var.name.split("_")
        a, b, t = int(a), int(b), int(t)
        vec[var.index] = 1.0 if steps[a] == t and steps[b] == t else 0.0
    return vec


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def solve_fusion(
    instance: FusionInstance,
    exact: bool | None = None,
    solver: BranchAndBoundSolver | None = None,
) -> FusionAssignment:
    """Solve a fusion instance, choosing the exact or heuristic path.

    ``exact=None`` auto-selects: instances up to :data:`EXACT_OP_LIMIT` ops run
    the exact path; larger instances use ASAP + local search directly.

    The exact path starts from the heuristic assignment, so its result is
    never worse than greedy. Step 0 counts the fusable pairs (same type, no
    dependency path between them): each adds at most 1 to the objective,
    so if the greedy start already fuses all of them it is returned as
    ``"optimal"`` without building the MILP or importing scipy. Table-3
    plans 0/1 always end here, which is what keeps scipy's ~0.5 s import
    and the 252-variable MILP off ``rap-repro plan/run --plan 0|1``.
    Otherwise the MILP goes to ``solver``, whose root-LP gate or branch and
    cut proves or improves the start. ``method="milp"`` names the exact
    path, whichever of the three proved the optimum.
    """
    if instance.num_ops == 0:
        return FusionAssignment(instance, [], method="empty")
    greedy = _local_improve(instance, _greedy_assignment(instance))
    use_exact = exact if exact is not None else instance.num_ops <= EXACT_OP_LIMIT
    if not use_exact:
        return FusionAssignment(instance, greedy, method="heuristic")

    greedy_pairs = FusionAssignment(instance, greedy).fused_pair_count()
    if greedy_pairs == sum(1 for _ in _fusable_pairs(instance)):
        # Every fusable pair is already fused: the pair-count bound proves
        # the warm start optimal without building or solving the MILP.
        return FusionAssignment(instance, greedy, method="milp", milp_status="optimal")

    problem, x = build_fusion_milp(instance)
    warm = _warm_start_vector(instance, problem, x, greedy)
    bb = solver or BranchAndBoundSolver()
    solution = bb.solve(problem, warm_start=warm)
    if not solution.ok:
        return FusionAssignment(instance, greedy, method="heuristic_fallback")
    steps = _assignment_from_milp(instance, x, solution)
    assignment = FusionAssignment(instance, steps, method="milp", milp_status=solution.status)
    # The MILP can only match or beat the warm start, but guard anyway.
    if assignment.fused_pair_count() < greedy_pairs:
        return FusionAssignment(instance, greedy, method="heuristic_fallback")
    return assignment
