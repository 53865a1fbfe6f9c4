"""Linearization of products of binary variables (McCormick envelopes).

The paper's horizontal-fusion objective (Eq. 3-4) maximizes the sum of
*squared* per-time-step fusion degrees -- a quadratic function of the
binary assignment matrix. Expanding the square,

    (sum_i F[i][j])**2 = sum_i F[i][j] + 2 * sum_{i<k} F[i][j] * F[k][j],

and since each operation executes exactly once (Eq. 1), the linear part is
a constant; maximizing the quadratic objective is equivalent to maximizing
the number of *co-scheduled same-type pairs*. Each pairwise product is
linearized exactly with the standard McCormick constraints for binaries:

    y <= x1,   y <= x2,   y >= x1 + x2 - 1,   0 <= y <= 1.

With a maximization objective putting positive weight on ``y``, the upper
constraints make ``y = min(x1, x2)`` at optimality, so ``y`` may safely be
continuous -- keeping the integer variable count at |F|.
"""

from __future__ import annotations

from .model import MilpProblem, Variable

__all__ = ["add_binary_product"]


def add_binary_product(
    problem: MilpProblem,
    x1: Variable,
    x2: Variable,
    name: str,
) -> Variable:
    """Add ``y = x1 * x2`` for binary ``x1, x2``; returns the product var."""
    y = problem.add_var(name, lb=0.0, ub=1.0, integer=False)
    problem.add_constraint({y: 1.0, x1: -1.0}, "<=", 0.0, name=f"{name}_le_x1")
    problem.add_constraint({y: 1.0, x2: -1.0}, "<=", 0.0, name=f"{name}_le_x2")
    problem.add_constraint({y: 1.0, x1: -1.0, x2: -1.0}, ">=", -1.0, name=f"{name}_ge_sum")
    return y
