"""LP / ILP solver substrate.

The paper solves its benchmark LP with Gurobi; here HiGHS (through scipy)
takes that role for every LP and ILP the library builds:

* :class:`LinearProgram` — the backend-neutral model, and
  :class:`ArrayProgram`, the same program as arrays (what HiGHS takes).
* :func:`solve_lp` — the one entry point: HiGHS's LP solver, or its MIP
  solver for programs with integer-marked variables, in one direct call on
  SciPy's vendored HiGHS bindings; an LP can start from a
  :class:`StartBasis`.
"""

from repro.solver.api import solve_lp
from repro.solver.problem import (
    ArrayProgram,
    Constraint,
    LinearProgram,
    Sense,
    StartBasis,
    Variable,
)
from repro.solver.result import LPSolution, SolveStatus

__all__ = [
    "ArrayProgram",
    "LinearProgram",
    "Variable",
    "Constraint",
    "Sense",
    "StartBasis",
    "LPSolution",
    "SolveStatus",
    "solve_lp",
]
