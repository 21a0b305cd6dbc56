"""LP / ILP solver substrate.

The paper solves its benchmark LP with Gurobi; here HiGHS (through scipy)
takes that role for every LP and ILP the library builds, the delta-patched
chain's included.  An in-repo revised simplex is kept as an independent
reference for tests and benches:

* :class:`LinearProgram` — the backend-neutral model.
* :func:`solve_lp` — the one entry point: HiGHS for LPs and for programs
  with integer-marked variables (``backend="scipy"``, the default), or the
  revised simplex for LPs (``backend="revised-simplex"``).
* :func:`solve_lp_revised_simplex` — the revised simplex with its
  representation and warm-start options.
"""

from repro.solver.api import solve_lp
from repro.solver.problem import Constraint, LinearProgram, Sense, Variable
from repro.solver.result import LPSolution, SolveStatus
from repro.solver.revised_simplex import (
    RevisedSimplexOptions,
    solve_lp_revised_simplex,
)
from repro.solver.simplex import SimplexOptions
from repro.solver.sparse import CSCMatrix, DenseMatrix
from repro.solver.standard_form import StandardForm, prefer_sparse, to_standard_form

__all__ = [
    "LinearProgram",
    "Variable",
    "Constraint",
    "Sense",
    "LPSolution",
    "SolveStatus",
    "solve_lp",
    "SimplexOptions",
    "RevisedSimplexOptions",
    "solve_lp_revised_simplex",
    "StandardForm",
    "to_standard_form",
    "prefer_sparse",
    "CSCMatrix",
    "DenseMatrix",
]
