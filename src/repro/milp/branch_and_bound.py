"""MILP solver: a root-LP warm-start gate, then one HiGHS branch and cut.

Solving runs scipy's HiGHS over the sparse matrix form of the problem, in
at most two calls:

1. the root LP relaxation (``linprog``). When its bound already proves the
   feasible warm start optimal -- the common case for the planner, whose
   greedy fusion start is usually optimal -- the warm start is returned
   at once, which is about three times cheaper than a full MIP solve;
2. otherwise one branch-and-cut call (``milp``) under the solver's node and
   time limits. Its point replaces the warm start only when it is feasible
   and strictly better, so large instances still degrade gracefully to the
   best feasible solution known (mirroring how Gurobi would be used with a
   time limit in the paper's pipeline).

scipy is imported on the first solve, not with this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .model import MilpProblem

__all__ = ["MilpSolution", "BranchAndBoundSolver"]


@dataclass
class MilpSolution:
    """Outcome of a MILP solve.

    Status/gap contract:

    - ``"optimal"``: the search completed; ``x`` is set and ``gap`` is 0.
    - ``"feasible"``: a limit stopped the search with an incumbent in hand
      (including a warm-start-only incumbent at zero nodes explored);
      ``x`` is set and ``gap`` is a finite bound on the suboptimality.
    - ``"node_limit"`` / ``"time_limit"``: a limit stopped the search with
      *no* incumbent; ``x``, ``objective`` and ``gap`` are ``None``.
    - ``"infeasible"``: the problem has no integral solution; ``x`` and
      ``gap`` are ``None``.
    """

    status: str  # "optimal", "feasible", "infeasible", "node_limit", "time_limit"
    x: np.ndarray | None
    objective: float | None
    nodes_explored: int = 0
    gap: float | None = None

    @property
    def ok(self) -> bool:
        return self.x is not None


class BranchAndBoundSolver:
    """Solve a :class:`MilpProblem` with HiGHS behind a root-LP warm-start gate."""

    #: Always ``None``: the solver caches nothing. Kept only because the
    #: traced benchmark (``perfbench/tracing.py``) reads ``solver.cache``
    #: around every solve; drop it together with that reader.
    cache = None

    def __init__(
        self,
        node_limit: int = 20_000,
        time_limit_s: float = 30.0,
        integrality_tol: float = 1e-6,
        gap_tol: float = 1e-9,
    ) -> None:
        self.node_limit = node_limit
        self.time_limit_s = time_limit_s
        self.integrality_tol = integrality_tol
        self.gap_tol = gap_tol

    def solve(self, problem: MilpProblem, warm_start: np.ndarray | None = None) -> MilpSolution:
        from scipy.optimize import Bounds, LinearConstraint, linprog, milp

        deadline = time.monotonic() + self.time_limit_s
        arrays = problem.to_arrays()
        c = arrays["c"]
        integer_mask = arrays["integer_mask"]

        incumbent_x: np.ndarray | None = None
        incumbent_obj = np.inf  # minimization form
        if warm_start is not None and problem.is_feasible(warm_start):
            incumbent_x = np.asarray(warm_start, dtype=float)
            incumbent_obj = float(c @ incumbent_x)

        root = linprog(
            c,
            A_ub=arrays["A_ub"],
            b_ub=arrays["b_ub"],
            A_eq=arrays["A_eq"],
            b_eq=arrays["b_eq"],
            bounds=arrays["bounds"],
            method="highs",
        )
        if not root.success:
            if incumbent_x is not None:
                # The warm start proves feasibility, so the relaxation's
                # failure is numerical; with no dual bound available the
                # incumbent is returned as-is with a zero gap estimate.
                return MilpSolution(
                    "feasible", incumbent_x, problem.objective_value(incumbent_x), 0, gap=0.0
                )
            return MilpSolution("infeasible", None, None)
        bound = float(root.fun)

        nodes = 0
        rejected = False  # HiGHS returned a better point that failed the check
        if self.node_limit <= 0:
            status = "node_limit"
        elif time.monotonic() > deadline:
            status = "time_limit"
        elif incumbent_x is not None and bound >= incumbent_obj - self.gap_tol:
            # The root bound proves the warm start optimal: no search needed.
            return MilpSolution(
                "optimal", incumbent_x, problem.objective_value(incumbent_x), 1, gap=0.0
            )
        else:
            constraints = [
                LinearConstraint(a, lb, ub)
                for a, lb, ub in (
                    (arrays["A_ub"], -np.inf, arrays["b_ub"]),
                    (arrays["A_eq"], arrays["b_eq"], arrays["b_eq"]),
                )
                if a is not None
            ]
            result = milp(
                c,
                integrality=integer_mask.astype(np.uint8),
                bounds=Bounds(arrays["bounds"][:, 0], arrays["bounds"][:, 1]),
                constraints=constraints,
                options={
                    "node_limit": self.node_limit,
                    "time_limit": max(0.0, deadline - time.monotonic()),
                    "mip_rel_gap": 0.0,
                },
            )
            nodes = int(result.mip_node_count or 0)
            status = _milp_status(result)
            if result.x is not None:
                snapped = np.array(result.x, dtype=float)
                snapped[integer_mask] = np.round(snapped[integer_mask])
                obj = float(c @ snapped)
                if obj < incumbent_obj - self.gap_tol:
                    if problem.is_feasible(snapped):
                        incumbent_x, incumbent_obj = snapped, obj
                    else:
                        rejected = True
            dual = result.mip_dual_bound
            if dual is not None and np.isfinite(dual):
                bound = max(bound, float(dual))

        if incumbent_x is None:
            # No integral point in hand: try snapping the root relaxation to
            # integers as a last-resort feasible point.
            snapped = root.x.copy()
            snapped[integer_mask] = np.floor(snapped[integer_mask] + self.integrality_tol)
            if problem.is_feasible(snapped):
                incumbent_x = snapped
                incumbent_obj = float(c @ snapped)
        if incumbent_x is None:
            limited = status in ("node_limit", "time_limit")
            return MilpSolution(status if limited else "infeasible", None, None, nodes)
        if status == "optimal" and not rejected:
            return MilpSolution(
                "optimal", incumbent_x, problem.objective_value(incumbent_x), nodes, gap=0.0
            )
        # A limit stopped the search with an incumbent in hand (possibly the
        # untouched warm start at zero nodes explored), or HiGHS's optimum
        # failed the feasibility check: report "feasible" with a finite
        # optimality gap against the best proven bound.
        return MilpSolution(
            "feasible",
            incumbent_x,
            problem.objective_value(incumbent_x),
            nodes,
            gap=max(0.0, incumbent_obj - bound),
        )


def _milp_status(result) -> str:
    """Map a scipy ``milp`` result onto this module's status names."""
    if result.status == 0:
        return "optimal"
    if "Time limit" in result.message:
        return "time_limit"
    # HiGHS reports its node limit as "Solution limit reached", which
    # scipy does not recognise (status 4).
    if result.status == 1 or "Solution limit" in result.message:
        return "node_limit"
    return "infeasible"
