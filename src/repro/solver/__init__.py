"""LP / ILP solver substrate.

The paper solves its benchmark LP with Gurobi; this package replaces it with
a from-scratch solving stack (see DESIGN.md §2 for the substitution
rationale):

* :class:`LinearProgram` — the backend-neutral model.
* :func:`solve_lp` — unified entry point with presolve and backend selection
  (``simplex`` / ``revised-simplex`` / ``scipy`` / ``auto``, which is
  HiGHS through scipy).
* :func:`solve_ilp` — LP-based branch-and-bound for exact integral optima.
"""

from repro.solver.api import BACKENDS, resolve_backend, solve_lp
from repro.solver.branch_and_bound import BranchAndBoundOptions, solve_ilp
from repro.solver.lp_format import LPFormatError, parse_lp_format, write_lp_format
from repro.solver.presolve import PresolveResult, PresolveStatus, presolve
from repro.solver.problem import Constraint, LinearProgram, Sense, Variable
from repro.solver.result import ILPSolution, LPSolution, SolveStatus
from repro.solver.revised_simplex import (
    RevisedSimplexOptions,
    solve_lp_revised_simplex,
)
from repro.solver.scipy_backend import solve_lp_scipy
from repro.solver.simplex import SimplexOptions, solve_lp_simplex
from repro.solver.sparse import CSCMatrix, DenseMatrix
from repro.solver.standard_form import StandardForm, prefer_sparse, to_standard_form

__all__ = [
    "LinearProgram",
    "Variable",
    "Constraint",
    "Sense",
    "LPSolution",
    "ILPSolution",
    "SolveStatus",
    "solve_lp",
    "solve_ilp",
    "BranchAndBoundOptions",
    "BACKENDS",
    "resolve_backend",
    "presolve",
    "PresolveResult",
    "PresolveStatus",
    "SimplexOptions",
    "solve_lp_simplex",
    "RevisedSimplexOptions",
    "solve_lp_revised_simplex",
    "solve_lp_scipy",
    "StandardForm",
    "to_standard_form",
    "prefer_sparse",
    "CSCMatrix",
    "DenseMatrix",
    "write_lp_format",
    "parse_lp_format",
    "LPFormatError",
]
