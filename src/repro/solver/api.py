"""Unified solve entry points with backend selection and presolve.

``solve_lp(lp, backend="auto")`` is what the rest of the library calls.
Backends:

* ``"simplex"`` — from-scratch two-phase tableau simplex (dense, reference).
* ``"revised-simplex"`` — from-scratch revised simplex; the constraint
  representation (dense array vs pure-NumPy CSC) is picked by problem size:
  above :data:`~repro.solver.standard_form.DENSE_CELL_LIMIT` cells
  (``m * (n + m)``, phase-1 artificials included) the sparse path is used
  (see :func:`repro.solver.standard_form.prefer_sparse`).
* ``"revised-simplex-dense"`` / ``"revised-simplex-sparse"`` — the revised
  simplex with the representation forced (benchmarking, parity tests).
* ``"scipy"`` — HiGHS via ``scipy.optimize.linprog``.
* ``"auto"`` — scipy (HiGHS), a core dependency.

Presolve (:mod:`repro.solver.presolve`) runs only in front of the in-repo
simplex backends.  HiGHS gets the program as built: it presolves itself and
handles variable bounds natively, so the in-repo pass would only rebuild the
program and drop bounds HiGHS solves faster with.

The algorithm layer calls ``solve_lp(lp)`` and so always gets HiGHS; the
other backends are chosen by name here, for tests and benchmarks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.solver.presolve import PresolveStatus, presolve as run_presolve
from repro.solver.problem import LinearProgram
from repro.solver.result import LPSolution, SolveStatus
from repro.solver.revised_simplex import RevisedSimplexOptions, solve_lp_revised_simplex
from repro.solver.scipy_backend import solve_lp_scipy
from repro.solver.simplex import SimplexOptions, solve_lp_simplex

BACKENDS = (
    "auto",
    "simplex",
    "revised-simplex",
    "revised-simplex-dense",
    "revised-simplex-sparse",
    "scipy",
)


def resolve_backend(backend: str) -> str:
    """Turn ``"auto"`` into a concrete backend name.

    Raises:
        ValueError: for unknown backend names.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend == "auto":
        return "scipy"
    return backend


def _solver_for(
    backend: str, warm_start: tuple[str, ...] | None = None
) -> Callable[[LinearProgram], LPSolution]:
    name = resolve_backend(backend)
    if name == "simplex":
        return lambda lp: solve_lp_simplex(lp, SimplexOptions())
    if name == "revised-simplex":
        return lambda lp: solve_lp_revised_simplex(
            lp, RevisedSimplexOptions(), warm_start=warm_start
        )
    if name == "revised-simplex-dense":
        return lambda lp: solve_lp_revised_simplex(
            lp, RevisedSimplexOptions(sparse=False), warm_start=warm_start
        )
    if name == "revised-simplex-sparse":
        return lambda lp: solve_lp_revised_simplex(
            lp, RevisedSimplexOptions(sparse=True), warm_start=warm_start
        )
    return solve_lp_scipy


def solve_lp(
    lp: LinearProgram,
    backend: str = "auto",
    *,
    presolve: bool = True,
    warm_start: tuple[str, ...] | None = None,
) -> LPSolution:
    """Solve a linear program (the relaxation, if integer markers are present).

    Args:
        lp: the program to solve (never mutated).
        backend: one of :data:`BACKENDS`.
        presolve: run the reduction passes before an in-repo simplex
            backend (recommended; fixed variables and singleton rows are
            common in branch-and-bound subproblems, and the implied-bound
            pass is what keeps the wide benchmark LP at ``|U| + |V|``
            standard-form rows).  Ignored when the backend resolves to
            ``"scipy"``: HiGHS presolves the unchanged program itself.
        warm_start: ``basis_labels`` from a previous solution of a
            structurally similar program; the revised-simplex backends use
            matching labels as a crash basis (presolve keeps variable and
            constraint names, so the labels survive the reduction).  Other
            backends ignore the hint.

    Returns:
        An :class:`LPSolution` whose ``x`` is aligned with ``lp``'s variables
        and whose objective is in ``lp``'s own sense.
    """
    name = resolve_backend(backend)
    solver = _solver_for(name, warm_start)
    if name == "scipy" or not presolve:
        return solver(lp)

    reduction = run_presolve(lp)
    if reduction.status is PresolveStatus.INFEASIBLE:
        return LPSolution(SolveStatus.INFEASIBLE, backend="presolve")
    reduced = reduction.lp
    assert reduced is not None
    if reduced.num_variables == 0:
        # Everything was fixed; feasibility of the remaining empty program was
        # already verified by presolve.
        return LPSolution(
            SolveStatus.OPTIMAL,
            objective_value=reduction.objective_offset,
            x=reduction.recover_x(np.empty(0), lp.num_variables),
            backend="presolve",
        )
    solution = solver(reduced)
    if not solution.is_optimal:
        return LPSolution(
            solution.status,
            iterations=solution.iterations,
            backend=solution.backend,
            diagnostics=solution.diagnostics,
        )
    return LPSolution(
        SolveStatus.OPTIMAL,
        objective_value=solution.objective_value + reduction.objective_offset,
        x=reduction.recover_x(solution.x, lp.num_variables),
        iterations=solution.iterations,
        backend=solution.backend,
        basis_labels=solution.basis_labels,
        diagnostics=solution.diagnostics,
    )
