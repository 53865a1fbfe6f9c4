"""``repro.milp`` -- from-scratch MILP solving (the Gurobi substitute).

A modeling layer, a solver that runs scipy's HiGHS branch and cut behind
a root-LP warm-start gate, binary-product linearization, and the paper's
§6.2 horizontal-fusion formulation with exact and heuristic solution
paths.
"""

from .model import Constraint, MilpProblem, Variable
from .branch_and_bound import BranchAndBoundSolver, MilpSolution
from .linearize import add_binary_product, add_pairwise_products
from .fusion_problem import (
    FusionAssignment,
    FusionInstance,
    build_fusion_milp,
    solve_fusion,
)

__all__ = [
    "Constraint",
    "MilpProblem",
    "Variable",
    "BranchAndBoundSolver",
    "MilpSolution",
    "add_binary_product",
    "add_pairwise_products",
    "FusionAssignment",
    "FusionInstance",
    "build_fusion_milp",
    "solve_fusion",
]
