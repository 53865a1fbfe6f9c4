"""Unit tests for the MILP modeling layer."""

import numpy as np
import pytest

from repro.milp.model import MilpProblem, Variable


class TestVariable:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Variable(index=0, name="x", lb=1.0, ub=0.0)


class TestMilpProblem:
    def test_add_var_indices(self):
        p = MilpProblem()
        x = p.add_var("x")
        y = p.add_var("y")
        assert (x.index, y.index) == (0, 1)
        assert p.num_vars == 2

    def test_duplicate_names_rejected(self):
        p = MilpProblem()
        p.add_var("x")
        with pytest.raises(ValueError):
            p.add_var("x")

    def test_add_binary(self):
        p = MilpProblem()
        b = p.add_binary("b")
        assert b.integer and b.lb == 0.0 and b.ub == 1.0

    def test_bad_sense_rejected(self):
        p = MilpProblem()
        x = p.add_var("x")
        with pytest.raises(ValueError):
            p.add_constraint({x: 1.0}, "<", 1.0)

    def test_zero_coefficients_dropped(self):
        p = MilpProblem()
        x, y = p.add_var("x"), p.add_var("y")
        con = p.add_constraint({x: 1.0, y: 0.0}, "<=", 1.0)
        assert len(con.coeffs) == 1

    def test_to_arrays_minimization_sign(self):
        p = MilpProblem(maximize=True)
        x = p.add_var("x")
        p.set_objective({x: 3.0})
        arrays = p.to_arrays()
        assert arrays["c"][0] == -3.0

    def test_to_arrays_ge_flipped(self):
        p = MilpProblem()
        x = p.add_var("x")
        p.add_constraint({x: 2.0}, ">=", 4.0)
        arrays = p.to_arrays()
        assert arrays["A_ub"][0][0] == -2.0
        assert arrays["b_ub"][0] == -4.0

    def test_to_arrays_eq_separate(self):
        p = MilpProblem()
        x = p.add_var("x")
        p.add_constraint({x: 1.0}, "==", 1.0)
        arrays = p.to_arrays()
        assert arrays["A_ub"] is None
        assert arrays["A_eq"].shape == (1, 1)

    def test_objective_value(self):
        p = MilpProblem()
        x, y = p.add_var("x"), p.add_var("y")
        p.set_objective({x: 2.0, y: 5.0})
        assert p.objective_value(np.array([1.0, 1.0])) == 7.0

    def test_add_objective_term_accumulates(self):
        p = MilpProblem()
        x = p.add_var("x")
        p.add_objective_term(x, 1.0)
        p.add_objective_term(x, 2.0)
        assert p.objective_value(np.array([1.0])) == 3.0

    def test_is_feasible_checks_bounds(self):
        p = MilpProblem()
        p.add_var("x", lb=0.0, ub=1.0)
        assert p.is_feasible(np.array([0.5 + 1e-9])) is False  # integrality
        assert p.is_feasible(np.array([1.0]))
        assert not p.is_feasible(np.array([2.0]))

    def test_is_feasible_checks_constraints(self):
        p = MilpProblem()
        x, y = p.add_binary("x"), p.add_binary("y")
        p.add_constraint({x: 1.0, y: 1.0}, "<=", 1.0)
        assert p.is_feasible(np.array([1.0, 0.0]))
        assert not p.is_feasible(np.array([1.0, 1.0]))

    def test_is_feasible_continuous_vars(self):
        p = MilpProblem()
        p.add_var("x", lb=0.0, ub=1.0, integer=False)
        assert p.is_feasible(np.array([0.5]))

    def test_to_arrays_emits_sorted_csr(self):
        p = MilpProblem()
        x, y, z = p.add_var("x"), p.add_var("y"), p.add_var("z")
        p.add_constraint({z: 3.0, x: 1.0}, "<=", 4.0)
        p.add_constraint({y: 2.0}, ">=", 1.0)
        a_ub = p.to_arrays()["A_ub"]
        assert a_ub.format == "csr"
        assert a_ub.indices.tolist() == [0, 2, 1]
        assert a_ub.data.tolist() == [1.0, 3.0, -2.0]
        np.testing.assert_array_equal(a_ub.toarray(), [[1.0, 0.0, 3.0], [0.0, -2.0, 0.0]])

    def test_to_arrays_follows_later_changes(self):
        p = MilpProblem()
        x = p.add_var("x")
        p.add_constraint({x: 1.0}, "<=", 1.0)
        assert p.to_arrays()["A_ub"].shape == (1, 1)
        y = p.add_var("y")
        p.add_constraint({x: 1.0, y: 1.0}, "==", 1.0)
        p.add_objective_term(y, 2.0)
        arrays = p.to_arrays()
        assert arrays["A_ub"].shape == (1, 2)
        assert arrays["A_eq"].shape == (1, 2)
        assert arrays["c"].tolist() == [0.0, -2.0]
        assert not p.is_feasible(np.array([1.0, 1.0]))
