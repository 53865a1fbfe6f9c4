"""Fixtures shared by the service tests."""

import pytest

from repro.milp.branch_and_bound import BranchAndBoundSolver


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
