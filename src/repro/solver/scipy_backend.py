"""LP backend delegating to ``scipy.optimize.linprog`` (HiGHS).

The from-scratch simplex backends are exact but dense; the paper's largest
sweep (|U| = 10000 in Fig. 1b) produces benchmark LPs with tens of thousands
of columns, where a sparse interior-point/dual-simplex code is the practical
choice.  This mirrors the paper's use of Gurobi for the same role.

HiGHS receives the program exactly as built: :func:`repro.solver.api.solve_lp`
runs no in-repo presolve in front of this backend, because HiGHS presolves
internally and takes variable bounds natively.  Objective, bounds, senses and
right-hand sides go to ``linprog`` as arrays, and the constraint matrix as
sparse matrices assembled from the program's COO triplet cache.

scipy is a core dependency, imported on first use so that importing the
package stays cheap.
"""

from __future__ import annotations

import numpy as np

from repro.solver.problem import LinearProgram, Sense
from repro.solver.result import LPSolution, SolveStatus

#: ``linprog`` status codes with a verdict of their own; every other
#: unsuccessful code (4, numerical difficulties) maps to ``ERROR``.
_STATUS = {
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}


def solve_lp_scipy(lp: LinearProgram) -> LPSolution:
    """Solve ``lp`` with HiGHS via ``scipy.optimize.linprog``.

    The solution's ``diagnostics`` carry linprog's ``status`` code and
    ``message`` whatever the outcome, so a failure says why HiGHS stopped.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n = lp.num_variables
    m = lp.num_constraints
    sign = -1.0 if lp.maximize else 1.0
    c = sign * lp.objective_vector()

    # Vectorized assembly off the COO triplet cache (primed by bulk builders
    # like build_benchmark_lp): rows split into the inequality and equality
    # groups, >= rows flipped to <=, one csr_matrix call per group — no
    # per-coefficient Python loop.
    senses = np.fromiter(
        (
            0 if cstr.sense is Sense.EQ else (-1 if cstr.sense is Sense.GE else 1)
            for cstr in lp.constraints
        ),
        dtype=np.int64,
        count=m,
    )
    rhs = np.fromiter((cstr.rhs for cstr in lp.constraints), dtype=float, count=m)
    coo_rows, coo_cols, coo_vals = lp.constraints_coo()

    def build(row_mask: np.ndarray, row_factor: np.ndarray):
        rows = np.flatnonzero(row_mask)
        if not rows.size:
            return None, None
        new_row_of = np.full(m, -1, dtype=np.int64)
        new_row_of[rows] = np.arange(rows.size, dtype=np.int64)
        keep = row_mask[coo_rows]
        matrix = csr_matrix(
            (
                coo_vals[keep] * row_factor[coo_rows[keep]],
                (new_row_of[coo_rows[keep]], coo_cols[keep]),
            ),
            shape=(rows.size, n),
        )
        return matrix, rhs[rows] * row_factor[rows]

    factor = np.where(senses < 0, -1.0, 1.0)
    a_ub, b_ub = build(senses != 0, factor)
    a_eq, b_eq = build(senses == 0, factor)
    # An (n, 2) array with +-inf for absent bounds: linprog's native form,
    # which skips its per-tuple conversion of a list of (lower, upper) pairs.
    bounds = np.empty((n, 2), dtype=float)
    bounds[:, 0] = np.fromiter((v.lower for v in lp.variables), dtype=float, count=n)
    bounds[:, 1] = np.fromiter((v.upper for v in lp.variables), dtype=float, count=n)

    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )

    iterations = int(getattr(result, "nit", 0) or 0)
    diagnostics = {
        "linprog_status": int(result.status),
        "linprog_message": str(result.message),
    }
    if not result.success:
        return LPSolution(
            _STATUS.get(int(result.status), SolveStatus.ERROR),
            iterations=iterations,
            backend="scipy-highs",
            diagnostics=diagnostics,
        )
    objective = sign * float(result.fun)
    return LPSolution(
        SolveStatus.OPTIMAL,
        objective_value=objective,
        x=np.asarray(result.x, dtype=float),
        iterations=iterations,
        backend="scipy-highs",
        diagnostics=diagnostics,
    )
