"""Solution and status types of :func:`~repro.solver.api.solve_lp`."""

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
        iterations: HiGHS-reported iterations.
        backend: name of the backend that produced the solution
            (``"scipy-highs"``, or ``"none"`` for a program without
            variables).
        diagnostics: backend-reported solve telemetry: HiGHS's model
            status (``highs_status``) and its name (``highs_message``), plus
            ``mip_node_count`` and ``mip_gap`` for an integer program.  None
            when no backend ran.
        start: how the simplex started: ``"cold"`` (no start basis given),
            ``"warm"`` (HiGHS took the given start) or ``"rejected"``
            (HiGHS refused it and started cold).
    """

    status: SolveStatus
    objective_value: float = float("nan")
    x: np.ndarray = field(default_factory=lambda: np.empty(0))
    iterations: int = 0
    backend: str = ""
    diagnostics: dict | None = None
    start: str = "cold"

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)

    @property
    def is_optimal(self) -> bool:
        return self.status.is_optimal

