"""The one solve entry point: HiGHS for LPs and ILPs.

``solve_lp(lp)`` is what the rest of the library calls.  It hands the
program to HiGHS in one direct call on SciPy's vendored bindings
(``scipy.optimize._highspy``): pass the model, optionally set a start
basis, run.  A program with integer-marked variables goes to HiGHS's MIP
solver with a zero relative gap, so its optimum is proven, not accepted
within HiGHS's default 1e-4 gap; anything else is solved as an LP by the
dual simplex.  This mirrors the paper's use of Gurobi for the benchmark LP
(1)-(4) and, with 0/1 variables, for the exact optima of Lemma 1.

HiGHS receives the program exactly as built: it presolves internally and
takes variable bounds natively.  Every program reaches HiGHS as an
:class:`~repro.solver.problem.ArrayProgram` — objective, bounds, senses and
right-hand sides as arrays, the constraint matrix assembled column-wise
from its COO triplets, each row with its own bounds in program order.  Bulk
builders (the benchmark LP) pass one directly; a
:class:`~repro.solver.problem.LinearProgram` is converted by
:meth:`~repro.solver.problem.LinearProgram.to_arrays`, which reads its COO
triplet cache.  A :class:`~repro.solver.problem.StartBasis` makes the solve
warm: HiGHS starts its simplex from that basis (and skips presolve) instead
of from the slack basis.  scipy is a core dependency, imported on first use
so that importing the package stays cheap.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.solver.problem import ArrayProgram, LinearProgram, StartBasis
from repro.solver.result import LPSolution, SolveStatus

#: Feasibility tolerance for the constant rows of a program with no
#: variables (HiGHS's default primal feasibility tolerance).
_EMPTY_ROW_TOL = 1e-7


def solve_lp(
    lp: LinearProgram | ArrayProgram,
    backend: str = "scipy",
    *,
    start: StartBasis | None = None,
) -> LPSolution:
    """Solve a linear program, or an integer program, with HiGHS.

    Args:
        lp: the program to solve (never mutated): a :class:`LinearProgram`,
            or an :class:`ArrayProgram` that bulk builders hand over as
            arrays.
        backend: ``"scipy"`` (HiGHS), the only backend; the parameter stays
            for callers that name it.
        start: a start basis for the simplex (LPs only; ignored for an
            integer program).  The optimum is the same either way; a good
            start only saves iterations.

    Returns:
        An :class:`LPSolution` whose ``x`` is aligned with ``lp``'s variables
        and whose objective is in ``lp``'s own sense.  Its ``start`` says
        whether HiGHS took the start basis.  A program with no variables is
        answered without a backend: ``OPTIMAL`` with objective 0, or
        ``INFEASIBLE`` if one of its constant rows is violated.

    Raises:
        ValueError: for an unknown backend name.
    """
    if backend != "scipy":
        raise ValueError(f"unknown backend {backend!r}; expected 'scipy'")
    program = lp.to_arrays() if isinstance(lp, LinearProgram) else lp
    if program.num_variables == 0:
        return _solve_empty(program)
    return _solve_highs(program, start)


def _solve_empty(program: ArrayProgram) -> LPSolution:
    """A program without variables: each row compares 0 against its rhs.

    No backend runs, so the solution carries no ``diagnostics`` (no HiGHS
    status or message).
    """
    senses, rhs = program.senses, program.rhs
    violated = np.where(
        senses > 0,
        rhs < -_EMPTY_ROW_TOL,
        np.where(senses < 0, rhs > _EMPTY_ROW_TOL, np.abs(rhs) > _EMPTY_ROW_TOL),
    )
    if violated.any():
        return LPSolution(SolveStatus.INFEASIBLE, backend="none")
    return LPSolution(SolveStatus.OPTIMAL, objective_value=0.0, backend="none")


def _highs():
    """SciPy's vendored HiGHS bindings (imported on first use)."""
    from scipy.optimize._highspy import _core

    return _core


def _highs_lp(program: ArrayProgram) -> Any:
    """``program`` as a HiGHS ``HighsLp``.

    A maximization's costs are negated (HiGHS minimizes) and absent bounds
    are ``kHighsInf``.  Each row keeps its own bounds, in program order:
    ``(-inf, rhs]`` for ``<=``, ``[rhs, inf)`` for ``>=`` and ``[rhs, rhs]``
    for ``==``.  The matrix is column-wise, each column's rows ascending.
    Only an integer program carries column integrality.
    """
    from scipy.sparse import csc_array

    core = _highs()
    inf = core.kHighsInf
    n, m = program.num_variables, program.num_constraints
    senses, rhs = program.senses, program.rhs
    matrix = csc_array((program.vals, (program.rows, program.cols)), shape=(m, n))
    lp = core.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.col_cost_ = (-1.0 if program.maximize else 1.0) * program.objective
    lp.col_lower_ = np.where(np.isinf(program.lower), -inf, program.lower)
    lp.col_upper_ = np.where(np.isinf(program.upper), inf, program.upper)
    lp.row_lower_ = np.where(senses > 0, -inf, rhs)
    lp.row_upper_ = np.where(senses < 0, inf, rhs)
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = m
    lp.a_matrix_.start_ = matrix.indptr
    lp.a_matrix_.index_ = matrix.indices
    lp.a_matrix_.value_ = matrix.data
    if program.has_integer_variables:
        kinds = core.HighsVarType
        lp.integrality_ = np.where(
            program.integer, kinds.kInteger, kinds.kContinuous
        ).tolist()
    return lp


def _status(core: Any, model_status: Any) -> SolveStatus:
    """The verdict of a HiGHS model status that is not ``kOptimal``: the
    meanings ``linprog`` gave them, every status without one of its own
    (unbounded-or-infeasible included) is ``ERROR``."""
    statuses = core.HighsModelStatus
    if model_status in (statuses.kTimeLimit, statuses.kIterationLimit):
        return SolveStatus.ITERATION_LIMIT
    if model_status == statuses.kInfeasible:
        return SolveStatus.INFEASIBLE
    if model_status == statuses.kUnbounded:
        return SolveStatus.UNBOUNDED
    return SolveStatus.ERROR


def _solve_highs(program: ArrayProgram, start: StartBasis | None) -> LPSolution:
    """Solve ``program`` with one HiGHS object: options, ``passModel``,
    ``setBasis`` when a start is given, ``run``.

    The options are those ``linprog(method="highs")`` set: presolve on (HiGHS
    skips it when it starts from a basis), output off, debug checks off, the
    dual simplex, and for an integer program a zero relative MIP gap.  The
    solution's ``diagnostics`` carry HiGHS's model status (``highs_status``)
    and its name (``highs_message``) whatever the outcome, so a failure
    says why HiGHS stopped; an integer program's also carry HiGHS's
    ``mip_node_count`` and ``mip_gap``.
    """
    core = _highs()
    integer = program.has_integer_variables
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("highs_debug_level", 0)
    highs.setOptionValue("presolve", "on")
    highs.setOptionValue("simplex_strategy", 1)  # dual simplex
    if integer:
        highs.setOptionValue("mip_rel_gap", 0.0)
    loaded = highs.passModel(_highs_lp(program))
    used = "cold"
    if loaded == core.HighsStatus.kError:
        # The model never loaded: nothing was solved.
        model_status = core.HighsModelStatus.kModelError
    else:
        if start is not None and not integer:
            used = "warm" if _set_basis(core, highs, start) else "rejected"
        highs.run()
        model_status = highs.getModelStatus()
    info = highs.getInfo()
    diagnostics: dict[str, Any] = {
        "highs_status": int(model_status),
        "highs_message": str(highs.modelStatusToString(model_status)),
    }
    if integer:
        diagnostics["mip_node_count"] = int(info.mip_node_count)
        diagnostics["mip_gap"] = float(info.mip_gap)
    # HiGHS reports -1 when its MIP presolve settles the program.
    iterations = max(0, int(info.simplex_iteration_count))
    if model_status != core.HighsModelStatus.kOptimal:
        return LPSolution(
            _status(core, model_status),
            iterations=iterations,
            backend="scipy-highs",
            diagnostics=diagnostics,
            start=used,
        )
    sign = -1.0 if program.maximize else 1.0
    return LPSolution(
        SolveStatus.OPTIMAL,
        objective_value=sign * float(info.objective_function_value),
        x=np.array(highs.getSolution().col_value, dtype=float),
        iterations=iterations,
        backend="scipy-highs",
        diagnostics=diagnostics,
        start=used,
    )


def _set_basis(core: Any, highs: Any, start: StartBasis) -> bool:
    """Hand HiGHS ``start``; whether it took it."""
    status = core.HighsBasisStatus
    basis = core.HighsBasis()
    basis.col_status = np.where(
        start.basic_columns, status.kBasic, status.kLower
    ).tolist()
    basis.row_status = np.where(start.basic_rows, status.kBasic, status.kUpper).tolist()
    basis.alien = False
    basis.valid = True
    return highs.setBasis(basis) != core.HighsStatus.kError
