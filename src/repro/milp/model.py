"""A small mixed-integer linear programming modeling layer.

The paper formulates horizontal-fusion planning as a MILP (§6.2) and
solves it with Gurobi. Gurobi is unavailable here, so ``repro.milp``
provides a from-scratch replacement: this module is the modeling surface
(variables, linear constraints, linear objective) and
:mod:`repro.milp.branch_and_bound` is the solver, which hands the sparse
matrix form built here to scipy's HiGHS. Quadratic binary objectives are
lowered to linear form by :mod:`repro.milp.linearize`.

The matrix form is built once per problem and reused until the problem
changes; scipy is imported only when it is first built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = ["Variable", "Constraint", "MilpProblem"]

#: Slack allowed on bounds, integrality and constraints by ``is_feasible``.
FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class Variable:
    """One decision variable (identified by its column index)."""

    index: int
    name: str
    lb: float = 0.0
    ub: float = 1.0
    integer: bool = True

    def __post_init__(self) -> None:
        if self.lb > self.ub:
            raise ValueError(f"variable {self.name!r}: lb {self.lb} > ub {self.ub}")


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``sum(coef * var) <sense> rhs``."""

    coeffs: tuple[tuple[int, float], ...]
    sense: str  # "<=", ">=", "=="
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"constraint sense must be <=, >= or ==, got {self.sense!r}")


class MilpProblem:
    """A MILP under construction: maximize/minimize a linear objective."""

    def __init__(self, name: str = "milp", maximize: bool = True) -> None:
        self.name = name
        self.maximize = maximize
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._objective: dict[int, float] = {}
        self._names: set[str] = set()
        self._arrays: dict | None = None  # matrix form, dropped on any change

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = 1.0,
        integer: bool = True,
    ) -> Variable:
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        var = Variable(index=len(self.variables), name=name, lb=lb, ub=ub, integer=integer)
        self._arrays = None
        self.variables.append(var)
        self._names.add(name)
        return var

    def add_binary(self, name: str) -> Variable:
        return self.add_var(name, lb=0.0, ub=1.0, integer=True)

    def add_constraint(
        self,
        coeffs: Mapping[Variable, float],
        sense: str,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        packed = tuple((v.index, float(c)) for v, c in coeffs.items() if c != 0.0)
        con = Constraint(coeffs=packed, sense=sense, rhs=float(rhs), name=name)
        self._arrays = None
        self.constraints.append(con)
        return con

    def set_objective(self, coeffs: Mapping[Variable, float]) -> None:
        self._objective = {v.index: float(c) for v, c in coeffs.items()}
        self._arrays = None

    def add_objective_term(self, var: Variable, coef: float) -> None:
        self._objective[var.index] = self._objective.get(var.index, 0.0) + float(coef)
        self._arrays = None

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    # ------------------------------------------------------------------
    # Matrix form (consumed by the solver)
    # ------------------------------------------------------------------

    def to_arrays(self) -> dict:
        """Lower to the arrays scipy's HiGHS consumes (minimization form).

        ``A_ub`` / ``A_eq`` are ``scipy.sparse.csr_array`` with sorted column
        indices within each row (``None`` when there are no such rows);
        ``>=`` rows are negated into ``A_ub``. ``bounds`` is an ``(n, 2)``
        array. The arrays are shared between calls until the problem
        changes, so callers must not modify them.
        """
        if self._arrays is None:
            self._arrays = self._lower()
        return dict(self._arrays)

    def _lower(self) -> dict:
        from scipy.sparse import csr_array

        n = self.num_vars
        c = np.zeros(n)
        for idx, coef in self._objective.items():
            c[idx] = coef
        if self.maximize:
            c = -c

        # Per block: (column indices, values, row lengths, right-hand sides).
        blocks = {"ub": ([], [], [], []), "eq": ([], [], [], [])}
        for con in self.constraints:
            cols, vals, lengths, rhs = blocks["eq" if con.sense == "==" else "ub"]
            sign = -1.0 if con.sense == ">=" else 1.0
            for idx, coef in sorted(con.coeffs):
                cols.append(idx)
                vals.append(sign * coef)
            lengths.append(len(con.coeffs))
            rhs.append(sign * con.rhs)

        def matrix(block):
            cols, vals, lengths, rhs = block
            if not rhs:
                return None, None
            indptr = np.zeros(len(lengths) + 1, dtype=np.int32)
            np.cumsum(lengths, out=indptr[1:])
            a = csr_array(
                (np.asarray(vals, dtype=float), np.asarray(cols, dtype=np.int32), indptr),
                shape=(len(rhs), n),
            )
            return a, np.asarray(rhs, dtype=float)

        a_ub, b_ub = matrix(blocks["ub"])
        a_eq, b_eq = matrix(blocks["eq"])
        return {
            "c": c,
            "A_ub": a_ub,
            "b_ub": b_ub,
            "A_eq": a_eq,
            "b_eq": b_eq,
            "bounds": np.array([(v.lb, v.ub) for v in self.variables], dtype=float).reshape(n, 2),
            "integer_mask": np.array([v.integer for v in self.variables], dtype=bool),
        }

    def objective_value(self, x: np.ndarray) -> float:
        """Evaluate the (original, un-negated) objective at ``x``."""
        total = 0.0
        for idx, coef in self._objective.items():
            total += coef * x[idx]
        return total

    def is_feasible(self, x: np.ndarray) -> bool:
        """Check all constraints, bounds and integrality at ``x``, to ``FEASIBILITY_TOL``."""
        tol = FEASIBILITY_TOL
        arrays = self.to_arrays()
        x = np.asarray(x, dtype=float)
        lower, upper = arrays["bounds"].T
        if np.any(x < lower - tol) or np.any(x > upper + tol):
            return False
        ints = x[arrays["integer_mask"]]
        if np.any(np.abs(ints - np.round(ints)) > tol):
            return False
        if arrays["A_ub"] is not None and np.any(arrays["A_ub"] @ x > arrays["b_ub"] + tol):
            return False
        if arrays["A_eq"] is not None and np.any(np.abs(arrays["A_eq"] @ x - arrays["b_eq"]) > tol):
            return False
        return True
