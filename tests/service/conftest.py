"""Fixtures shared by the service tests."""

import pytest

import repro.core.fusion


@pytest.fixture
def solve_calls(monkeypatch):
    """A list that gains one entry per fusion solve the planner starts.

    Counts ``solve_fusion`` calls from the fusion pass, not HiGHS calls:
    the pair-count bound settles the Table-3 instances without HiGHS, so a
    zero HiGHS count would hold even for a cold search. Every solver call
    goes through ``solve_fusion``, so a zero here also means no MILP solve.
    """
    calls = []
    solve_fusion = repro.core.fusion.solve_fusion

    def counting_solve_fusion(*args, **kwargs):
        calls.append(args)
        return solve_fusion(*args, **kwargs)

    monkeypatch.setattr(repro.core.fusion, "solve_fusion", counting_solve_fusion)
    return calls
