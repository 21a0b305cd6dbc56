"""The one solve entry point: HiGHS for LPs and ILPs.

``solve_lp(lp)`` is what the rest of the library calls.  Backends:

* ``"scipy"`` (the default) — HiGHS via ``scipy.optimize.linprog``.  A
  program with integer-marked variables goes to HiGHS's MIP solver with a
  zero relative gap, so its optimum is proven, not accepted within HiGHS's
  default 1e-4 gap; anything else is solved as an LP.  This mirrors the
  paper's use of Gurobi for the benchmark LP (1)-(4) and, with 0/1
  variables, for the exact optima of Lemma 1.
* ``"revised-simplex"`` — the in-repo revised simplex
  (:mod:`repro.solver.revised_simplex`), LPs only; the constraint
  representation (dense array vs pure-NumPy CSC) is picked by size (see
  :func:`repro.solver.standard_form.prefer_sparse`).  Tests and benches use
  it as an independent reference; to force a representation or warm-start
  from a previous basis, call
  :func:`~repro.solver.revised_simplex.solve_lp_revised_simplex` directly.

HiGHS receives the program exactly as built: it presolves internally and
takes variable bounds natively.  Objective, bounds, senses and right-hand
sides go to ``linprog`` as arrays, and the constraint matrix as sparse
matrices assembled from the program's COO triplet cache.  scipy is a core
dependency, imported on first use so that importing the package stays cheap.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.solver.problem import LinearProgram, Sense
from repro.solver.result import LPSolution, SolveStatus
from repro.solver.revised_simplex import solve_lp_revised_simplex

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


def solve_lp(lp: LinearProgram, backend: str = "scipy") -> LPSolution:
    """Solve a linear program, or an integer program with HiGHS.

    Args:
        lp: the program to solve (never mutated).
        backend: ``"scipy"`` (HiGHS; LPs and integer-marked programs) or
            ``"revised-simplex"`` (the in-repo revised simplex; LPs only).

    Returns:
        An :class:`LPSolution` whose ``x`` is aligned with ``lp``'s variables
        and whose objective is in ``lp``'s own sense.  A program with no
        variables is answered without a backend: ``OPTIMAL`` with objective
        0, or ``INFEASIBLE`` if one of its constant rows is violated.

    Raises:
        ValueError: for an unknown backend name, or an integer-marked
            program on ``"revised-simplex"``.
    """
    if backend not in ("scipy", "revised-simplex"):
        raise ValueError(
            f"unknown backend {backend!r}; expected 'scipy' or 'revised-simplex'"
        )
    if backend == "revised-simplex" and lp.has_integer_variables:
        raise ValueError("the revised simplex solves LPs only; use backend='scipy'")
    if lp.num_variables == 0:
        return _solve_empty(lp)
    if backend == "revised-simplex":
        return solve_lp_revised_simplex(lp)
    return _solve_highs(lp)


def _solve_empty(lp: LinearProgram) -> LPSolution:
    """A program without variables: each row compares 0 against its rhs."""
    for constraint in lp.constraints:
        rhs = constraint.rhs
        if (
            (constraint.sense is Sense.LE and rhs < -_EMPTY_ROW_TOL)
            or (constraint.sense is Sense.GE and rhs > _EMPTY_ROW_TOL)
            or (constraint.sense is Sense.EQ and abs(rhs) > _EMPTY_ROW_TOL)
        ):
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


def _solve_highs(lp: LinearProgram) -> LPSolution:
    """Solve ``lp`` with HiGHS via ``scipy.optimize.linprog``.

    The solution's ``diagnostics`` carry linprog's ``status`` code and
    ``message`` whatever the outcome, so a failure says why HiGHS stopped;
    an integer program's also carry HiGHS's ``mip_node_count`` and
    ``mip_gap``.
    """
    from scipy.optimize import linprog

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
    coo = lp.constraints_coo()
    factor = np.where(senses < 0, -1.0, 1.0)
    a_ub, b_ub = _rows_as_csr(coo, (m, n), rhs, senses != 0, factor)
    a_eq, b_eq = _rows_as_csr(coo, (m, n), rhs, senses == 0, factor)
    # An (n, 2) array with +-inf for absent bounds: linprog's native form,
    # which skips its per-tuple conversion of a list of (lower, upper) pairs.
    bounds = np.empty((n, 2), dtype=float)
    bounds[:, 0] = np.fromiter((v.lower for v in lp.variables), dtype=float, count=n)
    bounds[:, 1] = np.fromiter((v.upper for v in lp.variables), dtype=float, count=n)

    integer = lp.has_integer_variables
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        integrality=(
            np.fromiter((v.is_integer for v in lp.variables), dtype=np.int64, count=n)
            if integer
            else None
        ),
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
