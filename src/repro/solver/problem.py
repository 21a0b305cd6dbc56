"""Linear-program model handed to the solver.

The paper solves its benchmark LP (1)-(4) with Gurobi; here HiGHS solves
it.  :class:`LinearProgram` is the backend-neutral model: named variables
with bounds and objective coefficients, plus sparse constraint rows with a
sense and right-hand side.

The model is deliberately small — just enough structure for the benchmark
LP and its integer-marked variant (the exact ILP) — and keeps constraint
coefficients sparse (``dict`` of variable index to coefficient), because
the benchmark LP touches each variable in at most ``1 + |S|`` rows.
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


@dataclass(frozen=True, eq=False)
class ArrayProgram:
    """A linear (or mixed-integer) program held as arrays: the form HiGHS
    takes, and what bulk builders hand :func:`~repro.solver.api.solve_lp`
    without a :class:`Variable` or :class:`Constraint` object per entry.

    Attributes:
        maximize: optimization sense.
        objective / lower / upper: per-variable coefficient and bounds.
        integer: per-variable integrality flags.
        rows / cols / vals: the constraint matrix as COO triplets.
        senses: per-constraint sense code: ``1`` for ``<=``, ``-1`` for
            ``>=``, ``0`` for ``==``.
        rhs: per-constraint right-hand side.
    """

    maximize: bool
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray

    @property
    def num_variables(self) -> int:
        return self.objective.size

    @property
    def num_constraints(self) -> int:
        return self.rhs.size

    @property
    def has_integer_variables(self) -> bool:
        return bool(self.integer.any())


@dataclass(frozen=True, eq=False)
class StartBasis:
    """A simplex start for :func:`~repro.solver.api.solve_lp`: which
    columns and rows of a program are basic.  Every nonbasic column sits at
    its lower bound and every nonbasic row at its upper bound.

    Attributes:
        basic_columns: per-variable flag, ``True`` for a basic column.
        basic_rows: per-constraint flag, ``True`` for a basic row.
    """

    basic_columns: np.ndarray
    basic_rows: np.ndarray


#: :attr:`ArrayProgram.senses` code of each :class:`Sense`.
SENSE_CODES = {Sense.LE: 1, Sense.GE: -1, Sense.EQ: 0}


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
        prime the COO cache, so :meth:`to_arrays` never re-reads the row
        dicts.

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

    def to_arrays(self) -> ArrayProgram:
        """The program as an :class:`ArrayProgram` (the constraint matrix
        from :meth:`constraints_coo`)."""
        n = self.num_variables
        m = self.num_constraints
        rows, cols, vals = self.constraints_coo()
        return ArrayProgram(
            maximize=self.maximize,
            objective=self.objective_vector(),
            lower=np.fromiter((v.lower for v in self.variables), dtype=float, count=n),
            upper=np.fromiter((v.upper for v in self.variables), dtype=float, count=n),
            integer=np.fromiter(
                (v.is_integer for v in self.variables), dtype=bool, count=n
            ),
            rows=rows,
            cols=cols,
            vals=vals,
            senses=np.fromiter(
                (SENSE_CODES[c.sense] for c in self.constraints),
                dtype=np.int64,
                count=m,
            ),
            rhs=np.fromiter((c.rhs for c in self.constraints), dtype=float, count=m),
        )

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
