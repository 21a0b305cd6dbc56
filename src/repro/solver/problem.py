"""Linear-program model used by every solver backend.

The paper solves its benchmark LP (1)-(4) with Gurobi; here HiGHS and an
in-repo revised simplex solve it.  :class:`LinearProgram` is the
backend-neutral model: named variables with bounds and objective
coefficients, plus sparse constraint rows with a sense and right-hand side.

The model is deliberately small — just enough structure for the benchmark LP,
its integer-marked variant (the exact ILP), the delta patches and the two
backends — and keeps constraint coefficients sparse (``dict`` of variable
index to coefficient), because the benchmark LP touches each variable in at
most ``1 + |S|`` rows.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Sense(Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(slots=True)
class Variable:
    """A decision variable.

    ``slots`` keeps the per-object footprint small — the wide benchmark LP
    holds one of these per (user, admissible set) pair, hundreds of
    thousands at |U| = 50k.

    Attributes:
        name: unique display name.
        index: position in the LP's variable list.
        lower: lower bound (may be ``-inf``).
        upper: upper bound (may be ``inf``).
        objective: coefficient in the objective function.
        is_integer: marks the variable integral (HiGHS then solves the
            program as a MIP).
    """

    name: str
    index: int
    lower: float = 0.0
    upper: float = math.inf
    objective: float = 0.0
    is_integer: bool = False


@dataclass(slots=True)
class Constraint:
    """A sparse linear constraint ``sum(coeff * x) sense rhs``."""

    name: str
    coefficients: dict[int, float]
    sense: Sense
    rhs: float

    def evaluate(self, x: np.ndarray) -> float:
        """Left-hand-side value at the point ``x``."""
        return float(sum(coeff * x[idx] for idx, coeff in self.coefficients.items()))

    def is_satisfied(self, x: np.ndarray, tol: float = 1e-7) -> bool:
        """Whether ``x`` satisfies this constraint within ``tol``."""
        lhs = self.evaluate(x)
        if self.sense is Sense.LE:
            return lhs <= self.rhs + tol
        if self.sense is Sense.GE:
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


@dataclass
class LinearProgram:
    """A linear (or mixed-integer) program.

    Example::

        lp = LinearProgram(maximize=True)
        x = lp.add_variable("x", upper=4.0, objective=3.0)
        y = lp.add_variable("y", upper=2.0, objective=5.0)
        lp.add_constraint({x: 1.0, y: 2.0}, Sense.LE, 8.0)
    """

    name: str = ""
    maximize: bool = True
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    _names: set[str] = field(default_factory=set, repr=False)
    # Cached COO triplets of the constraint matrix (rows, cols, vals);
    # invalidated by add_constraint, primed by add_constraints.
    _coo: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    # Cached (col, row)-lexicographic sort order of _coo, computed by
    # to_standard_form on first use and reused until the triplets change —
    # repeat conversions of the same matrix (warm re-solves of a cached LP)
    # skip the O(nnz log nnz) lexsort.
    _coo_order: np.ndarray | None = field(default=None, repr=False, compare=False)
    # Lazy name -> index maps and the variable -> constraint-rows incidence
    # that apply_lp_patch maintains; None until first needed.
    _var_index: dict[str, int] | None = field(default=None, repr=False, compare=False)
    _con_index: dict[str, int] | None = field(default=None, repr=False, compare=False)
    _var_rows: dict[int, set[int]] | None = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_variable(
        self,
        name: str | None = None,
        *,
        lower: float = 0.0,
        upper: float = math.inf,
        objective: float = 0.0,
        is_integer: bool = False,
    ) -> int:
        """Add a variable and return its index.

        Raises:
            ValueError: on duplicate name or ``lower > upper``.
        """
        if lower > upper:
            raise ValueError(f"variable {name!r}: lower {lower} > upper {upper}")
        index = len(self.variables)
        if name is None:
            name = f"x{index}"
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        self._names.add(name)
        if self._var_index is not None:
            self._var_index[name] = index
        if self._var_rows is not None:
            self._var_rows[index] = set()
        self.variables.append(
            Variable(
                name=name,
                index=index,
                lower=lower,
                upper=upper,
                objective=objective,
                is_integer=is_integer,
            )
        )
        return index

    def add_constraint(
        self,
        coefficients: dict[int, float],
        sense: Sense,
        rhs: float,
        name: str | None = None,
    ) -> int:
        """Add a constraint and return its index.

        Zero coefficients are dropped; indices must refer to existing
        variables.

        Raises:
            IndexError: if a coefficient references an unknown variable.
        """
        for idx in coefficients:
            if not 0 <= idx < len(self.variables):
                raise IndexError(f"constraint references unknown variable index {idx}")
        clean = {idx: float(c) for idx, c in coefficients.items() if c != 0.0}
        if name is None:
            name = f"c{len(self.constraints)}"
        row = len(self.constraints)
        self.constraints.append(Constraint(name, clean, sense, float(rhs)))
        self._coo = None
        self._coo_order = None
        if self._con_index is not None:
            self._con_index[name] = row
        if self._var_rows is not None:
            for idx in clean:
                self._var_rows.setdefault(idx, set()).add(row)
        return row

    def add_variables(
        self,
        names: list[str],
        *,
        objective: Sequence[float] | np.ndarray,
        lower: float = 0.0,
        upper: float = math.inf,
        is_integer: bool = False,
    ) -> None:
        """Fill a program that has no variables yet with one variable per
        name, all with the same bounds.

        The bulk form of :meth:`add_variable` for builders that hold the
        objective as an array; variable ``i`` gets ``names[i]`` and
        ``objective[i]``.

        Raises:
            ValueError: if the program already has variables, on a duplicate
                name, an objective of another length, or ``lower > upper``.
        """
        if self.variables:
            raise ValueError("add_variables fills a program without variables")
        if lower > upper:
            raise ValueError(f"variables: lower {lower} > upper {upper}")
        objective_list = np.asarray(objective, dtype=float).tolist()
        count = len(names)
        if len(objective_list) != count:
            raise ValueError(
                f"{len(objective_list)} objective entries for {count} variables"
            )
        fresh = set(names)
        if len(fresh) != count:
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    raise ValueError(f"duplicate variable name {name!r}")
                seen.add(name)
        self.variables = list(
            map(
                Variable,
                names,
                range(count),
                itertools.repeat(lower, count),
                itertools.repeat(upper, count),
                objective_list,
                itertools.repeat(is_integer, count),
            )
        )
        self._names = fresh
        self._var_index = None
        self._var_rows = None

    def add_constraints(
        self,
        names: list[str],
        sense: Sense,
        rhs: Sequence[float] | np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        """Give a program that has no constraints yet one constraint of
        ``sense`` per name, its nonzero coefficients as COO triplets.

        ``rows`` numbers the constraints in ``names`` order and must be
        sorted; a ``(row, col)`` pair may appear once.  The triplets also
        prime the COO cache, so
        :func:`~repro.solver.standard_form.to_standard_form` and the HiGHS
        backend never re-read the row dicts.

        Raises:
            IndexError: if a triplet references an unknown variable.
            ValueError: if the program already has constraints, on unsorted
                or out-of-range ``rows``, a zero coefficient, a repeated
                ``(row, col)`` pair, or lengths that disagree.
        """
        if self.constraints:
            raise ValueError("add_constraints fills a program without constraints")
        count = len(names)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        rhs_list = np.asarray(rhs, dtype=float).tolist()
        if not (rows.size == cols.size == vals.size) or len(rhs_list) != count:
            raise ValueError("names, rhs and the COO triplets disagree in length")
        if cols.size:
            bad = cols[(cols < 0) | (cols >= len(self.variables))]
            if bad.size:
                raise IndexError(
                    f"constraint references unknown variable index {int(bad[0])}"
                )
            if rows[0] < 0 or rows[-1] >= count or np.any(np.diff(rows) < 0):
                raise ValueError(f"rows must be sorted and within [0, {count})")
            if not vals.all():
                raise ValueError("coefficients must be nonzero")
        bounds = np.searchsorted(rows, np.arange(count + 1)).tolist()
        col_list = cols.tolist()
        val_list = vals.tolist()
        coefficients = [
            dict(zip(col_list[lo:hi], val_list[lo:hi]))
            for lo, hi in itertools.pairwise(bounds)
        ]
        if sum(map(len, coefficients)) != len(col_list):
            raise ValueError("a (row, col) pair appears more than once")
        self.constraints = list(
            map(Constraint, names, coefficients, itertools.repeat(sense, count), rhs_list)
        )
        self._coo = (rows, cols, vals)
        self._coo_order = None
        self._con_index = None
        self._var_rows = None

    def constraints_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The constraint matrix as COO triplets ``(rows, cols, vals)``.

        Assembled from the per-row coefficient dicts on first use and cached;
        bulk builders prime the cache through :meth:`add_constraints`.
        """
        if self._coo is None:
            row_arrays: list[np.ndarray] = []
            col_arrays: list[np.ndarray] = []
            val_arrays: list[np.ndarray] = []
            for i, constraint in enumerate(self.constraints):
                count = len(constraint.coefficients)
                if count == 0:
                    continue
                row_arrays.append(np.full(count, i, dtype=np.int64))
                col_arrays.append(
                    np.fromiter(constraint.coefficients.keys(), dtype=np.int64, count=count)
                )
                val_arrays.append(
                    np.fromiter(constraint.coefficients.values(), dtype=float, count=count)
                )
            if row_arrays:
                self._coo = (
                    np.concatenate(row_arrays),
                    np.concatenate(col_arrays),
                    np.concatenate(val_arrays),
                )
            else:
                self._coo = (
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0),
                )
        return self._coo

    # ------------------------------------------------------------------
    # Incremental patching (see repro.solver.patch)
    # ------------------------------------------------------------------
    def variable_index(self) -> dict[str, int]:
        """Name -> index map of the variables (lazy; apply_lp_patch keeps it
        consistent afterwards)."""
        if self._var_index is None:
            self._var_index = {v.name: v.index for v in self.variables}
        return self._var_index

    def constraint_index(self) -> dict[str, int]:
        """Name -> row map of the constraints (lazy; maintained like
        :meth:`variable_index`)."""
        if self._con_index is None:
            self._con_index = {c.name: i for i, c in enumerate(self.constraints)}
        return self._con_index

    def variable_rows(self) -> dict[int, set[int]]:
        """Variable index -> rows holding a coefficient for it (lazy
        incidence; what makes column removal O(column nnz) instead of a
        full matrix scan)."""
        if self._var_rows is None:
            incidence: dict[int, set[int]] = {
                v.index: set() for v in self.variables
            }
            for row, constraint in enumerate(self.constraints):
                for idx in constraint.coefficients:
                    incidence[idx].add(row)
            self._var_rows = incidence
        return self._var_rows

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def has_integer_variables(self) -> bool:
        return any(v.is_integer for v in self.variables)

    def objective_vector(self) -> np.ndarray:
        """Objective coefficients as a dense array."""
        return np.array([v.objective for v in self.variables], dtype=float)

    def objective_value(self, x: np.ndarray) -> float:
        """Objective value at ``x`` (in the program's own sense)."""
        return float(self.objective_vector() @ np.asarray(x, dtype=float))

    def dense_constraint_matrix(self) -> tuple[np.ndarray, list[Sense], np.ndarray]:
        """Return ``(A, senses, b)`` with one dense row per constraint."""
        m, n = self.num_constraints, self.num_variables
        a = np.zeros((m, n), dtype=float)
        b = np.zeros(m, dtype=float)
        senses: list[Sense] = []
        for i, constraint in enumerate(self.constraints):
            for idx, coeff in constraint.coefficients.items():
                a[i, idx] = coeff
            b[i] = constraint.rhs
            senses.append(constraint.sense)
        return a, senses, b

    def is_feasible(self, x: np.ndarray, tol: float = 1e-7) -> bool:
        """Whether ``x`` satisfies all bounds and constraints within ``tol``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_variables,):
            raise ValueError(
                f"point has shape {x.shape}, expected ({self.num_variables},)"
            )
        for variable in self.variables:
            value = x[variable.index]
            if value < variable.lower - tol or value > variable.upper + tol:
                return False
        return all(c.is_satisfied(x, tol) for c in self.constraints)

    def __repr__(self) -> str:
        kind = "ILP" if self.has_integer_variables else "LP"
        goal = "max" if self.maximize else "min"
        return (
            f"LinearProgram({self.name!r}, {goal}, {kind}, "
            f"vars={self.num_variables}, cons={self.num_constraints})"
        )
