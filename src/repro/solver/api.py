"""The one solve entry point: HiGHS for LPs and ILPs.

``solve_lp(lp)`` is what the rest of the library calls.  It hands the
program to HiGHS via ``scipy.optimize.linprog``.  A program with
integer-marked variables goes to HiGHS's MIP solver with a zero relative
gap, so its optimum is proven, not accepted within HiGHS's default 1e-4
gap; anything else is solved as an LP.  This mirrors the paper's use of
Gurobi for the benchmark LP (1)-(4) and, with 0/1 variables, for the exact
optima of Lemma 1.

HiGHS receives the program exactly as built: it presolves internally and
takes variable bounds natively.  Every program reaches ``linprog`` as an
:class:`~repro.solver.problem.ArrayProgram` — objective, bounds, senses and
right-hand sides as arrays, the constraint matrix as sparse matrices
assembled from its COO triplets.  Bulk builders (the benchmark LP) pass one
directly; a :class:`~repro.solver.problem.LinearProgram` is converted by
:meth:`~repro.solver.problem.LinearProgram.to_arrays`, which reads its COO
triplet cache.  scipy is a core dependency, imported on first use so that
importing the package stays cheap.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.solver.problem import ArrayProgram, LinearProgram
from repro.solver.result import LPSolution, SolveStatus

#: ``linprog`` status codes with a verdict of their own; every other
#: unsuccessful code (4, numerical difficulties) maps to ``ERROR``.
_STATUS = {
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}

#: Feasibility tolerance for the constant rows of a program with no
#: variables (HiGHS's default primal feasibility tolerance).
_EMPTY_ROW_TOL = 1e-7


def solve_lp(
    lp: LinearProgram | ArrayProgram, backend: str = "scipy"
) -> LPSolution:
    """Solve a linear program, or an integer program, with HiGHS.

    Args:
        lp: the program to solve (never mutated): a :class:`LinearProgram`,
            or an :class:`ArrayProgram` that bulk builders hand over as
            arrays.
        backend: ``"scipy"`` (HiGHS), the only backend; the parameter stays
            for callers that name it.

    Returns:
        An :class:`LPSolution` whose ``x`` is aligned with ``lp``'s variables
        and whose objective is in ``lp``'s own sense.  A program with no
        variables is answered without a backend: ``OPTIMAL`` with objective
        0, or ``INFEASIBLE`` if one of its constant rows is violated.

    Raises:
        ValueError: for an unknown backend name.
    """
    if backend != "scipy":
        raise ValueError(f"unknown backend {backend!r}; expected 'scipy'")
    program = lp.to_arrays() if isinstance(lp, LinearProgram) else lp
    if program.num_variables == 0:
        return _solve_empty(program)
    return _solve_highs(program)


def _solve_empty(program: ArrayProgram) -> LPSolution:
    """A program without variables: each row compares 0 against its rhs."""
    senses, rhs = program.senses, program.rhs
    violated = np.where(
        senses > 0,
        rhs < -_EMPTY_ROW_TOL,
        np.where(senses < 0, rhs > _EMPTY_ROW_TOL, np.abs(rhs) > _EMPTY_ROW_TOL),
    )
    if violated.any():
        return LPSolution(SolveStatus.INFEASIBLE, backend="none")
    return LPSolution(SolveStatus.OPTIMAL, objective_value=0.0, backend="none")


def _rows_as_csr(
    coo: tuple[np.ndarray, np.ndarray, np.ndarray],
    shape: tuple[int, int],
    rhs: np.ndarray,
    row_mask: np.ndarray,
    row_factor: np.ndarray,
) -> tuple[Any, np.ndarray | None]:
    """The masked rows of the COO matrix as a CSR matrix, each row (and its
    rhs) scaled by ``row_factor``; ``(None, None)`` when no row is masked."""
    from scipy.sparse import csr_matrix

    rows = np.flatnonzero(row_mask)
    if not rows.size:
        return None, None
    coo_rows, coo_cols, coo_vals = coo
    new_row_of = np.full(shape[0], -1, dtype=np.int64)
    new_row_of[rows] = np.arange(rows.size, dtype=np.int64)
    keep = row_mask[coo_rows]
    matrix = csr_matrix(
        (
            coo_vals[keep] * row_factor[coo_rows[keep]],
            (new_row_of[coo_rows[keep]], coo_cols[keep]),
        ),
        shape=(rows.size, shape[1]),
    )
    return matrix, rhs[rows] * row_factor[rows]


def _solve_highs(program: ArrayProgram) -> LPSolution:
    """Solve ``program`` with HiGHS via ``scipy.optimize.linprog``.

    The solution's ``diagnostics`` carry linprog's ``status`` code and
    ``message`` whatever the outcome, so a failure says why HiGHS stopped;
    an integer program's also carry HiGHS's ``mip_node_count`` and
    ``mip_gap``.
    """
    from scipy.optimize import linprog

    n = program.num_variables
    m = program.num_constraints
    sign = -1.0 if program.maximize else 1.0
    c = sign * program.objective

    # Rows split into the inequality and equality groups, >= rows flipped
    # to <=, one csr_matrix call per group.
    senses = program.senses
    coo = (program.rows, program.cols, program.vals)
    factor = np.where(senses < 0, -1.0, 1.0)
    a_ub, b_ub = _rows_as_csr(coo, (m, n), program.rhs, senses != 0, factor)
    a_eq, b_eq = _rows_as_csr(coo, (m, n), program.rhs, senses == 0, factor)
    # An (n, 2) array with +-inf for absent bounds: linprog's native form,
    # which skips its per-tuple conversion of a list of (lower, upper) pairs.
    bounds = np.empty((n, 2), dtype=float)
    bounds[:, 0] = program.lower
    bounds[:, 1] = program.upper

    integer = program.has_integer_variables
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        integrality=program.integer.astype(np.int64) if integer else None,
        options={"mip_rel_gap": 0.0} if integer else None,
    )
    # HiGHS reports nit = -1 when its MIP presolve settles the program.
    iterations = max(0, int(getattr(result, "nit", 0) or 0))
    diagnostics: dict[str, Any] = {
        "linprog_status": int(result.status),
        "linprog_message": str(result.message),
    }
    if integer:
        diagnostics["mip_node_count"] = int(getattr(result, "mip_node_count", 0) or 0)
        diagnostics["mip_gap"] = float(getattr(result, "mip_gap", 0.0) or 0.0)
    if not result.success:
        return LPSolution(
            _STATUS.get(int(result.status), SolveStatus.ERROR),
            iterations=iterations,
            backend="scipy-highs",
            diagnostics=diagnostics,
        )
    return LPSolution(
        SolveStatus.OPTIMAL,
        objective_value=sign * float(result.fun),
        x=np.asarray(result.x, dtype=float),
        iterations=iterations,
        backend="scipy-highs",
        diagnostics=diagnostics,
    )
