"""Unit tests for binary-product linearization."""

import itertools

import pytest

from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.linearize import add_binary_product
from repro.milp.model import MilpProblem


class TestAddBinaryProduct:
    def test_product_behaves_as_and(self):
        """Maximizing y with McCormick constraints forces y = x1 * x2."""
        for want_x1, want_x2 in itertools.product([0, 1], repeat=2):
            p = MilpProblem(maximize=True)
            x1, x2 = p.add_binary("x1"), p.add_binary("x2")
            # Pin x1, x2 with equality constraints.
            p.add_constraint({x1: 1.0}, "==", float(want_x1))
            p.add_constraint({x2: 1.0}, "==", float(want_x2))
            y = add_binary_product(p, x1, x2, "y")
            p.set_objective({y: 1.0})
            sol = BranchAndBoundSolver().solve(p)
            assert sol.objective == pytest.approx(float(want_x1 and want_x2))

    def test_product_variable_is_continuous(self):
        p = MilpProblem()
        x1, x2 = p.add_binary("x1"), p.add_binary("x2")
        y = add_binary_product(p, x1, x2, "y")
        assert not y.integer

    def test_constraints_added(self):
        p = MilpProblem()
        x1, x2 = p.add_binary("x1"), p.add_binary("x2")
        before = p.num_constraints
        add_binary_product(p, x1, x2, "y")
        assert p.num_constraints == before + 3
