"""Pivot options, the solve record and the ratio test of the simplex.

The revised simplex (:mod:`repro.solver.revised_simplex`) builds on these:

* :class:`SimplexOptions` — the pivot cap and the anti-cycling rule:
  Dantzig's rule (most negative reduced cost) with an automatic, permanent
  switch to Bland's rule after ``bland_after`` pivots or a long run of
  degenerate pivots, which guarantees termination even on degenerate,
  cycling-prone inputs;
* :class:`_TableauResult` — a solve's outcome in standard-form space;
* :func:`min_ratio_row` — the vectorized minimum-ratio test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solver.result import SolveStatus

_TOL = 1e-9


@dataclass
class SimplexOptions:
    """Tuning knobs shared by the simplex implementations.

    Attributes:
        max_iterations: hard pivot cap; 0 means "auto" (``50 * (m + n) + 1000``).
        bland_after: pivot count after which the rule switches from Dantzig to
            Bland (anti-cycling).
        tol: numerical tolerance for reduced costs, ratios and feasibility.
    """

    max_iterations: int = 0
    bland_after: int = 10_000
    tol: float = _TOL

    def resolved_max_iterations(self, m: int, n: int) -> int:
        if self.max_iterations > 0:
            return self.max_iterations
        return 50 * (m + n) + 1000

    def degenerate_run_limit(self, m: int) -> int:
        """Consecutive degenerate (zero-step) pivots tolerated before the
        pivot rule switches to Bland permanently.

        ``bland_after`` alone cannot guarantee termination — it may exceed
        the iteration cap — and a cycle only ever makes degenerate pivots,
        so a long zero-progress run is the reliable trigger.
        """
        return m + 16


@dataclass
class _TableauResult:
    status: SolveStatus
    y: np.ndarray
    objective: float
    iterations: int
    #: Basic column indices at termination.
    basis: np.ndarray | None = None
    #: Whether a caller-supplied warm basis actually started the solve
    #: (False also when the warm repair was abandoned).
    warm_used: bool = False


def min_ratio_row(
    column: np.ndarray, rhs: np.ndarray, basis: np.ndarray, tol: float
) -> int | None:
    """Row of the leaving variable by the vectorized minimum ratio test.

    Computes the *true* minimum ratio over the rows with ``column > tol``,
    then breaks ties — rows within ``tol`` of that minimum — by the smallest
    basis index (the Bland tie-break, which is also what makes the full Bland
    rule cycle-free).  Anchoring ties against the true minimum matters: the
    historical per-row loop re-anchored on every accepted tie, letting the
    accepted ratio ratchet upward by up to ``tol`` per row, so a row far from
    the minimum could win the pivot and take a feasibility-destroying step.

    Returns None when the column is nonpositive, i.e. the LP is unbounded
    along it.
    """
    eligible = column > tol
    if not eligible.any():
        return None
    ratios = np.full(column.shape[0], np.inf)
    np.divide(rhs, column, out=ratios, where=eligible)
    min_ratio = ratios.min()
    ties = np.flatnonzero(ratios <= min_ratio + tol)
    if ties.size == 1:
        return int(ties[0])
    return int(ties[np.argmin(basis[ties])])
