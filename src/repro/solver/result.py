"""Solution and status types shared by all solver backends."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class SolveStatus(Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NODE_LIMIT = "node_limit"
    #: The backend stopped without a verdict for another reason (HiGHS
    #: numerical difficulties); its ``diagnostics`` say why.
    ERROR = "error"

    @property
    def is_optimal(self) -> bool:
        return self is SolveStatus.OPTIMAL


@dataclass
class LPSolution:
    """Result of solving a :class:`~repro.solver.problem.LinearProgram`.

    Attributes:
        status: solve outcome; ``x``/``objective_value`` are only meaningful
            when ``status.is_optimal``.
        objective_value: objective in the program's own sense (max or min).
        x: primal values aligned with the program's variable indices.
        iterations: simplex pivots (or backend-reported iterations).
        backend: name of the backend that produced the solution.
        basis_labels: names of the basic columns at optimality (variable
            names; slacks as ``slack:<constraint name>``), reported by the
            revised-simplex backends.  Feed them back into
            :func:`repro.solver.api.solve_lp` as ``warm_start`` to crash the
            next, structurally similar solve from this basis.
        diagnostics: backend-reported solve telemetry (e.g. warm-start label
            match/stale counts and whether the solve fell back to a cold
            start, dual/primal pivot and refactorization counts on the
            incremental path, linprog's ``status`` and ``message`` on the
            HiGHS backend).  None when the backend reports nothing.
    """

    status: SolveStatus
    objective_value: float = float("nan")
    x: np.ndarray = field(default_factory=lambda: np.empty(0))
    iterations: int = 0
    backend: str = ""
    basis_labels: tuple[str, ...] | None = None
    diagnostics: dict | None = None

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)

    @property
    def is_optimal(self) -> bool:
        return self.status.is_optimal


@dataclass
class ILPSolution:
    """Result of a branch-and-bound solve.

    Attributes:
        status: ``OPTIMAL`` when the tree was exhausted, ``NODE_LIMIT`` when an
            incumbent exists but optimality was not proven.
        objective_value: incumbent objective (program's own sense).
        x: incumbent point.
        nodes_explored: number of branch-and-bound nodes processed.
        best_bound: tightest relaxation bound over open nodes at termination;
            equals ``objective_value`` when optimal.
    """

    status: SolveStatus
    objective_value: float = float("nan")
    x: np.ndarray = field(default_factory=lambda: np.empty(0))
    nodes_explored: int = 0
    best_bound: float = float("nan")

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)

    @property
    def is_optimal(self) -> bool:
        return self.status.is_optimal

    @property
    def gap(self) -> float:
        """Relative optimality gap (0.0 when proven optimal)."""
        if self.status.is_optimal:
            return 0.0
        if np.isnan(self.objective_value) or np.isnan(self.best_bound):
            return float("inf")
        denom = max(abs(self.objective_value), 1e-12)
        return abs(self.best_bound - self.objective_value) / denom
