"""Revised simplex with explicit basis-inverse maintenance.

The benchmark LP (1)-(4) is *wide*: one column per (user, admissible set)
pair but only ``|U| + |V|`` rows.  A tableau simplex updates the full
``m x (n + m)`` tableau per pivot; the revised simplex keeps only the
``m x m`` basis inverse and prices columns on demand, which is the right
trade-off for wide LPs.  The basis inverse is updated by a rank-1 (eta)
transformation each pivot and rebuilt from scratch every
``refactor_every`` pivots to stop drift.

The core is representation-agnostic: it consumes the sparse
(:class:`~repro.solver.sparse.CSCMatrix`) or dense
(:class:`~repro.solver.sparse.DenseMatrix`) constraint operator that
:func:`~repro.solver.standard_form.to_standard_form` produced, so the wide
LP is priced as an O(nnz) segment sum instead of an O(m*n) dense matvec.
The per-pivot work is kept at a single rank-1 update:

* pricing uses a rotating partial-pricing window (Dantzig within the
  window, full sweep before declaring optimality) with the usual permanent
  switch to Bland's rule after ``bland_after`` pivots;
* the ratio test is fully vectorized with the Bland tie-break anchored at
  the true minimum ratio (see :func:`repro.solver.simplex.min_ratio_row`);
* the duals are updated incrementally from the leaving row of the basis
  inverse (``y' = y + beta * rho_r``) instead of re-solving
  ``c_B @ B^-1`` every pivot, and recomputed exactly at every
  refactorization;
* a slack crash basis from :attr:`StandardForm.basis_hint` skips phase 1
  outright for all-inequality programs with nonnegative rhs — which the
  benchmark LP always is.

Pivot options, anti-cycling and the ratio test come from
:mod:`repro.solver.simplex`; the test suite cross-checks both
representations against each other and against HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.solver.problem import LinearProgram
from repro.solver.result import LPSolution, SolveStatus
from repro.solver.simplex import SimplexOptions, _TableauResult, min_ratio_row
from repro.solver.sparse import CSCMatrix, DenseMatrix
from repro.solver.standard_form import StandardForm, to_standard_form


@dataclass
class RevisedSimplexOptions(SimplexOptions):
    """Simplex options plus the revised-specific knobs.

    Attributes:
        refactor_every: basis-inverse rebuild period (rank-1 drift guard).
        sparse: force the CSC (True) or dense (False) constraint
            representation; None lets the standard-form size heuristic
            decide (see :func:`repro.solver.standard_form.prefer_sparse`).
        partial_pricing: price a rotating window of columns per pivot
            instead of the full Dantzig scan (a full sweep still certifies
            optimality; Bland's rule, once active, always scans fully).
        pricing_block: window width; 0 picks ``max(256, n // 16)``.
    """

    refactor_every: int = 200
    sparse: bool | None = None
    partial_pricing: bool = True
    pricing_block: int = 0


class _RevisedCore:
    """One phase of the revised simplex over ``min c@x, A@x == b, x >= 0``.

    Basis algebra goes through four methods — :meth:`_direction`,
    :meth:`_ftran`, :meth:`_rho` and :meth:`_compute_duals` — against an
    explicit dense basis inverse; the pivot loop (:meth:`run`) and the
    warm-start repair only ever touch those.
    """

    def __init__(
        self,
        matrix: CSCMatrix | DenseMatrix,
        b: np.ndarray,
        options: RevisedSimplexOptions,
    ):
        self.matrix = matrix
        self.b = b
        self.options = options
        self.m = matrix.shape[0]
        self.n = matrix.shape[1]
        self.basis = np.empty(0, dtype=np.int64)
        self.in_basis = np.zeros(self.n, dtype=bool)
        self.x_basic = b.copy()
        self.duals: np.ndarray | None = None  # maintained per run()
        self.pivots_since_refactor = 0
        self.pricing_cursor = 0
        self._allocate_inverse()

    def _allocate_inverse(self) -> None:
        self.basis_inverse = np.eye(self.m)
        self._rank1 = np.empty((self.m, self.m))  # reused eta-update buffer

    # ------------------------------------------------------------------
    # Basis algebra
    # ------------------------------------------------------------------
    def _direction(self, j: int) -> np.ndarray:
        """``B^-1 A[:, j]`` — the pivot direction of column ``j``."""
        return self.matrix.direction(self.basis_inverse, j)

    def _ftran(self, v: np.ndarray) -> np.ndarray:
        """``B^-1 v`` for a dense vector ``v``."""
        return self.basis_inverse @ v

    def _rho(self, row: int) -> np.ndarray:
        """Row ``row`` of ``B^-1`` (``e_row @ B^-1``)."""
        return self.basis_inverse[row].copy()

    def _compute_duals(self, costs: np.ndarray) -> np.ndarray:
        """``c_B @ B^-1`` from scratch."""
        return costs[self.basis] @ self.basis_inverse

    def set_basis(self, basis: np.ndarray | list[int], *, identity: bool = False) -> None:
        """Install a basis; ``identity=True`` skips the O(m^3) inversion
        when the basis matrix is known to be the identity (crash basis of
        slack and artificial unit columns)."""
        self.basis = np.asarray(basis, dtype=np.int64).copy()
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        if identity:
            self.basis_inverse = np.eye(self.m)
            self.x_basic = self.b.copy()
            self.pivots_since_refactor = 0
        else:
            self.refactor()

    def refactor(self) -> None:
        """Rebuild the basis inverse and basic solution from scratch."""
        basis_matrix = self.matrix.gather_dense(self.basis)
        self.basis_inverse = np.linalg.inv(basis_matrix)
        self.x_basic = self.basis_inverse @ self.b
        # Numerical noise can push a basic value to -1e-13; clamp so the
        # ratio test never divides feasibility away.
        self.x_basic[np.abs(self.x_basic) < self.options.tol] = 0.0
        self.pivots_since_refactor = 0

    def adopt(self, other: "_RevisedCore") -> None:
        """Take over ``other``'s basis state (same basis, wider matrix)."""
        self.basis = other.basis.copy()
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        self.basis_inverse = other.basis_inverse
        self.x_basic = other.x_basic

    def run(
        self,
        costs: np.ndarray,
        allowed: int,
        start_iteration: int,
        max_iterations: int,
    ) -> tuple[SolveStatus, int]:
        """Pivot to optimality for ``costs`` over columns ``[0, allowed)``."""
        tol = self.options.tol
        iterations = start_iteration
        degenerate_run = 0
        run_limit = self.options.degenerate_run_limit(self.m)
        force_bland = False
        self.duals = self._compute_duals(costs)
        while True:
            use_bland = force_bland or iterations >= self.options.bland_after
            entering = self._choose_entering(costs, self.duals, allowed, use_bland, tol)
            if entering is None:
                return SolveStatus.OPTIMAL, iterations
            direction = self._direction(entering)
            leaving_row = self._ratio_test(direction, tol)
            if leaving_row is None:
                return SolveStatus.UNBOUNDED, iterations
            step = self.x_basic[leaving_row] / direction[leaving_row]
            self._pivot(entering, leaving_row, direction, costs)
            if step <= tol:
                degenerate_run += 1
                force_bland = force_bland or degenerate_run >= run_limit
            else:
                degenerate_run = 0
            iterations += 1
            if iterations >= max_iterations:
                return SolveStatus.ITERATION_LIMIT, iterations

    def _choose_entering(
        self,
        costs: np.ndarray,
        duals: np.ndarray,
        allowed: int,
        use_bland: bool,
        tol: float,
    ) -> int | None:
        if allowed == 0:
            return None
        if use_bland:
            # Bland: lowest-index nonbasic column with negative reduced cost.
            # Always a full scan — that is what the termination proof needs.
            reduced = costs[:allowed] - self.matrix.price(duals, allowed)
            reduced[self.in_basis[:allowed]] = 0.0
            below = np.flatnonzero(reduced < -tol)
            return int(below[0]) if below.size else None

        block = self.options.pricing_block or max(256, allowed // 16)
        if not self.options.partial_pricing or block >= allowed:
            reduced = costs[:allowed] - self.matrix.price(duals, allowed)
            reduced[self.in_basis[:allowed]] = 0.0
            best = int(np.argmin(reduced))
            return best if reduced[best] < -tol else None

        # Partial pricing: Dantzig within a rotating window.  The duals are
        # fixed while we sweep, so covering every window without finding a
        # negative reduced cost is a complete optimality certificate.
        start = self.pricing_cursor if self.pricing_cursor < allowed else 0
        scanned = 0
        while scanned < allowed:
            stop = min(start + block, allowed)
            reduced = costs[start:stop] - self.matrix.price_block(duals, start, stop)
            reduced[self.in_basis[start:stop]] = 0.0
            best = int(np.argmin(reduced))
            if reduced[best] < -tol:
                # Stay on this window next pivot: entering candidates cluster.
                self.pricing_cursor = start
                return start + best
            scanned += stop - start
            start = 0 if stop >= allowed else stop
        return None

    def _ratio_test(self, direction: np.ndarray, tol: float) -> int | None:
        return min_ratio_row(direction, self.x_basic, self.basis, tol)

    def _pivot(
        self,
        entering: int,
        row: int,
        direction: np.ndarray,
        costs: np.ndarray | None,
    ) -> None:
        """Rank-1 update of the basis inverse, basic solution and duals.

        ``costs`` drives the incremental dual update ``y' = y + beta *
        rho_r`` (``rho_r`` = leaving row of the old inverse); pass None —
        e.g. for the inter-phase artificial drive-out — to invalidate the
        duals instead (the next :meth:`run` recomputes them).
        """
        pivot_value = direction[row]
        step = self.x_basic[row] / pivot_value
        self.x_basic -= step * direction
        self.x_basic[row] = step
        self.x_basic[np.abs(self.x_basic) < self.options.tol] = 0.0
        self._update_inverse(entering, row, direction, costs)
        self.in_basis[self.basis[row]] = False
        self.in_basis[entering] = True
        self.basis[row] = entering
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= self.options.refactor_every:
            self.refactor()
            if costs is not None:
                self.duals = self._compute_duals(costs)

    def _update_inverse(
        self,
        entering: int,
        row: int,
        direction: np.ndarray,
        costs: np.ndarray | None,
    ) -> None:
        """Rank-1 eta update of the explicit inverse (and the duals)."""
        pivot_value = direction[row]
        eta = direction / (-pivot_value)
        eta[row] = 1.0 / pivot_value
        pivot_row = self.basis_inverse[row].copy()
        if costs is not None and self.duals is not None:
            costs_b = costs[self.basis]
            beta = float(
                eta @ costs_b
                + eta[row] * (costs[entering] - costs_b[row])
                - costs_b[row]
            )
            self.duals += beta * pivot_row
        else:
            self.duals = None
        # B'^-1 = B^-1 + eta~ (x) rho_r with eta~ = eta - e_r, because row r
        # of B^-1 *is* rho_r — one buffered rank-1, no row rewrite, no
        # per-pivot m x m allocation.
        eta[row] -= 1.0
        np.multiply(eta[:, None], pivot_row[None, :], out=self._rank1)
        self.basis_inverse += self._rank1

    def solution(self) -> np.ndarray:
        x = np.zeros(self.n, dtype=float)
        x[self.basis] = self.x_basic
        return x


def _try_warm_core(
    matrix: CSCMatrix | DenseMatrix,
    b: np.ndarray,
    warm_basis: np.ndarray,
    options: RevisedSimplexOptions,
) -> _RevisedCore | None:
    """Install a caller-supplied crash basis, or None when it is unusable.

    Unusable means malformed (wrong size, duplicates, out of range) or
    singular (the basis matrix does not invert) — the caller then falls
    back to the cold two-phase start, so a stale warm-start hint can never
    produce a wrong answer, only a slower one.  The returned core may be
    primal *infeasible*; :func:`_warm_start_core` restores feasibility.
    """
    m = matrix.shape[0]
    n = matrix.shape[1]
    basis = np.asarray(warm_basis, dtype=np.int64)
    if basis.size != m or np.unique(basis).size != m:
        return None
    if basis.min(initial=0) < 0 or basis.max(initial=-1) >= n:
        return None
    core = _RevisedCore(matrix, b, options)
    try:
        core.set_basis(basis)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(core.x_basic).all():
        return None
    return core


def _warm_start_core(
    matrix: CSCMatrix | DenseMatrix,
    b: np.ndarray,
    c: np.ndarray,
    warm_basis: np.ndarray,
    options: RevisedSimplexOptions,
    max_iterations: int,
) -> tuple[_RevisedCore, np.ndarray, int] | None:
    """Set up phase 2 from a warm basis; None means fall back to cold start.

    A feasible warm basis starts phase 2 directly.  An infeasible one (the
    typical churn re-solve: ``b`` moved under the carried-over basis) is
    repaired by the single-artificial technique: append one column
    ``a = -Σ B[:, i] over the negative rows``, pivot it in at the most
    negative basic value — which makes every basic value nonnegative in one
    rank-1 update — and minimize the artificial from there.  Because the
    start is already near-optimal, this warm phase 1 typically takes a
    handful of pivots, against hundreds for the cold two-phase start.

    Returns ``(core, phase-2 costs, iterations spent)``; the core's matrix
    has one extra artificial column in the repair case (phase 2 never
    prices it, and a residual basic artificial sits harmlessly at zero,
    exactly like residual phase-1 artificials on the cold path).
    """
    core = _try_warm_core(matrix, b, warm_basis, options)
    if core is None:
        return None
    if not np.any(core.x_basic < 0.0):
        return core, c, 0

    n = matrix.shape[1]
    negative = core.x_basic < 0.0
    basis_columns = matrix.gather_dense(core.basis[negative])
    artificial = -basis_columns.sum(axis=1)
    extended = matrix.with_column(artificial)

    ext_core = _RevisedCore(extended, b, options)
    ext_core.adopt(core)
    row = int(np.argmin(ext_core.x_basic))
    direction = ext_core._ftran(artificial)
    if abs(direction[row]) <= options.tol:
        return None
    ext_core._pivot(n, row, direction, None)
    if np.any(ext_core.x_basic < -options.tol):
        return None  # numerical trouble: let the cold start handle it

    costs1 = np.zeros(n + 1)
    costs1[n] = 1.0
    status, iterations = ext_core.run(costs1, n + 1, 0, max_iterations)
    if status is not SolveStatus.OPTIMAL:
        return None
    if float(costs1[ext_core.basis] @ ext_core.x_basic) > 1e-7:
        # The warm phase 1 says infeasible; defer to the cold start rather
        # than declaring it from a repaired stale basis.
        return None
    # Drive a residual basic artificial out, exactly like the cold path:
    # phase 2 never prices column n, but a zero-level basic artificial on a
    # non-redundant row could still *rise* during phase-2 pivots (the ratio
    # test only bounds rows with positive direction components), silently
    # breaking A@x == b.  After the pivot — or when the row's structural
    # part prices to all-zero (truly redundant, the artificial can never
    # move) — phase 2 is safe.
    for row in np.flatnonzero(ext_core.basis >= n).tolist():
        tableau_row = matrix.price(ext_core._rho(row), n)
        candidates = np.flatnonzero(np.abs(tableau_row) > options.tol)
        if candidates.size:
            entering = int(candidates[0])
            direction = ext_core._direction(entering)
            ext_core._pivot(entering, row, direction, None)
            iterations += 1
    return ext_core, np.concatenate([c, [0.0]]), iterations


def solve_standard_form_revised(
    sf: StandardForm,
    options: RevisedSimplexOptions | None = None,
    warm_basis: np.ndarray | None = None,
) -> _TableauResult:
    """Two-phase revised simplex over a :class:`StandardForm`.

    A usable ``warm_basis`` (column indices, e.g. the final basis of a
    previous structurally similar solve) starts phase 2 from that basis
    directly.  Otherwise a full slack crash basis (available whenever every
    row is an inequality with nonnegative rhs, e.g. the benchmark LP)
    starts phase 2; the remaining cases get phase-1 artificials.
    """
    options = options or RevisedSimplexOptions()
    b, c = sf.b, sf.c
    m, n = sf.num_rows, sf.num_columns
    max_iterations = options.resolved_max_iterations(m, n)

    if m == 0:
        if np.any(c < -options.tol):
            return _TableauResult(SolveStatus.UNBOUNDED, np.zeros(n), np.nan, 0)
        return _TableauResult(SolveStatus.OPTIMAL, np.zeros(n), 0.0, 0)

    matrix = sf.matrix()
    hint = sf.basis_hint
    full_crash = hint is not None and bool((hint >= 0).all())
    iterations = 0

    warm = (
        _warm_start_core(matrix, b, c, warm_basis, options, max_iterations)
        if warm_basis is not None
        else None
    )
    if warm is not None:
        core, costs2, iterations = warm
    elif full_crash:
        # Slack basis is the identity and already feasible: skip phase 1.
        core = _RevisedCore(matrix, b, options)
        core.set_basis(hint, identity=True)
        costs2 = c
    else:
        # Phase 1 over [A | I]: artificials only where no slack is usable.
        a_ext = matrix.with_identity()
        artificial = np.arange(n, n + m, dtype=np.int64)
        basis0 = np.where(hint >= 0, hint, artificial) if hint is not None else artificial
        costs1 = np.concatenate([np.zeros(n), np.ones(m)])
        core = _RevisedCore(a_ext, b, options)
        core.set_basis(basis0, identity=True)
        status, iterations = core.run(costs1, n + m, 0, max_iterations)
        if status is SolveStatus.ITERATION_LIMIT:
            return _TableauResult(status, np.zeros(n), np.nan, iterations)
        phase1_value = float(costs1[core.basis] @ core.x_basic)
        if phase1_value > 1e-7:
            return _TableauResult(
                SolveStatus.INFEASIBLE, np.zeros(n), np.nan, iterations
            )

        # Drive residual artificials out of the basis where possible.  A row
        # whose structural part prices to all-zero is redundant: the
        # artificial stays basic at level zero, harmlessly, because phase-2
        # costs are only set for structural columns.
        for row in np.flatnonzero(core.basis >= n).tolist():
            tableau_row = matrix.price(core._rho(row), n)
            candidates = np.flatnonzero(np.abs(tableau_row) > options.tol)
            if candidates.size:
                entering = int(candidates[0])
                direction = core._direction(entering)
                core._pivot(entering, row, direction, None)
                iterations += 1
        costs2 = np.concatenate([c, np.zeros(m)])

    status, iterations = core.run(costs2, n, iterations, max_iterations)
    warm_used = warm is not None
    if status is not SolveStatus.OPTIMAL:
        return _TableauResult(
            status, np.zeros(n), np.nan, iterations, warm_used=warm_used
        )
    x_ext = core.solution()
    y = x_ext[:n]
    objective = float(c @ y)
    # Residual phase-1 artificials (indices >= n, basic at level zero on
    # redundant rows) are dropped from the exported basis: the labels of a
    # warm-start hint only name real columns.
    basis = core.basis[core.basis < n].copy()
    return _TableauResult(
        SolveStatus.OPTIMAL, y, objective, iterations, basis, warm_used=warm_used
    )


def _pivot_rows(
    columns_dense: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """LU row pivots of the given columns, plus the independent-column mask.

    The pivot rows are the rows a triangular basis completion must *not*
    cover with slacks; columns whose U diagonal vanishes are linearly
    dependent on earlier ones and must be dropped from the candidate basis
    (their pivot row is excluded alongside).  Returns None when no LU
    backend is available.
    """
    try:  # pragma: no cover - exercised whenever scipy is installed
        from scipy.linalg import lu_factor
    except ImportError:  # pragma: no cover - scipy-less environments
        return None
    m, k = columns_dense.shape
    if k == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    # LAPACK getrf on the tall matrix: piv[i] is the row swapped into
    # position i while eliminating column i, so replaying the first k swaps
    # over the row identity yields the pivot rows in column order.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rank deficiency is handled below
        lu, piv = lu_factor(columns_dense, check_finite=False)
    order = np.arange(m, dtype=np.int64)
    for i in range(min(k, piv.size)):
        j = int(piv[i])
        order[i], order[j] = order[j], order[i]
    diagonal = np.abs(np.diagonal(lu)[:k])
    scale = max(1.0, float(diagonal.max(initial=0.0)))
    independent = diagonal > 1e-11 * scale
    return order[:k], independent


class WarmResolution(NamedTuple):
    """Outcome of :func:`resolve_warm_basis`.

    Attributes:
        basis: the assembled m-column candidate basis, or None (cold start).
        matched: warm labels found in this standard form's columns.
        stale: warm labels naming columns that no longer exist — the count
            surfaces in ``LPSolution.diagnostics`` so callers can see *why*
            a warm start degraded instead of it failing silently.
    """

    basis: np.ndarray | None
    matched: int
    stale: int


def resolve_warm_basis(
    sf: StandardForm, labels: list[str], warm_labels: tuple[str, ...] | None
) -> WarmResolution:
    """Map basis labels from a previous solve onto this standard form.

    Matched labels (surviving variables / constraint slacks) seed the
    basis; a triangular completion then pads exactly the rows the matched
    columns do not pivot with those rows' own slack columns, so the
    candidate is nonsingular whenever the matched columns are independent.
    ``basis`` is None when no full m-column candidate can be assembled —
    the solver then cold-starts *explicitly* (a candidate that still turns
    out singular or infeasible is likewise discarded by the solver, so a
    stale hint can only cost pivots, never correctness); ``matched`` /
    ``stale`` label counts always report how usable the hint was.
    """
    if not warm_labels:
        return WarmResolution(None, 0, 0)
    m = sf.num_rows
    position = {label: j for j, label in enumerate(labels)}
    chosen: list[int] = []
    seen: set[int] = set()
    stale = 0
    for label in warm_labels:
        j = position.get(label)
        if j is None:
            stale += 1
        elif j not in seen:
            chosen.append(j)
            seen.add(j)
    matched = len(chosen)
    if not chosen or len(chosen) > m:
        return WarmResolution(None, matched, stale)
    if len(chosen) < m:
        if sf.basis_hint is None:
            return WarmResolution(None, matched, stale)
        factored = _pivot_rows(
            sf.matrix().gather_dense(np.asarray(chosen, dtype=np.int64))
        )
        if factored is None:
            return WarmResolution(None, matched, stale)
        pivots, independent = factored
        if not independent.all():
            # Dependent matched columns (the new matrix lost the rows that
            # distinguished them) leave the basis; their pivot rows free up
            # for slacks.
            chosen = [j for j, keep in zip(chosen, independent) if keep]
            seen = set(chosen)
            pivots = pivots[independent]
        hint = sf.basis_hint.tolist()
        uncovered = np.setdiff1d(
            np.arange(m, dtype=np.int64), pivots, assume_unique=False
        )
        for row in uncovered.tolist():
            if len(chosen) == m:
                break
            slack = hint[row]
            if slack >= 0 and slack not in seen:
                chosen.append(slack)
                seen.add(slack)
    if len(chosen) != m:
        return WarmResolution(None, matched, stale)
    return WarmResolution(np.asarray(chosen, dtype=np.int64), matched, stale)


def solve_lp_revised_simplex(
    lp: LinearProgram,
    options: RevisedSimplexOptions | None = None,
    warm_start: tuple[str, ...] | None = None,
) -> LPSolution:
    """Solve a :class:`LinearProgram` with the revised simplex backend.

    ``options.sparse`` selects the constraint representation (None = size
    heuristic); everything downstream of the representation — pivot rules,
    tolerances, statuses — is identical between the two.  ``warm_start``
    takes the ``basis_labels`` of a previous solution; usable labels crash
    the solve from that basis (stale or unusable hints fall back to the
    cold start).
    """
    options = options or RevisedSimplexOptions()
    sf = to_standard_form(lp, sparse=options.sparse)
    labels = sf.column_labels(lp)
    resolution = resolve_warm_basis(sf, labels, warm_start)
    result = solve_standard_form_revised(sf, options, warm_basis=resolution.basis)
    diagnostics: dict | None = None
    if warm_start is not None:
        # A stale hint no longer degrades silently: the explicit cold-path
        # mapping is recorded so callers (LPPacking diagnostics, benches)
        # can count warm-start fallbacks.
        diagnostics = {
            "warm_labels": len(warm_start),
            "warm_labels_matched": resolution.matched,
            "warm_labels_stale": resolution.stale,
            "warm_start_used": result.warm_used,
            "cold_fallback": not result.warm_used,
        }
    # Always report the representation, so callers see which path actually
    # ran — also when the size heuristic picked it.
    backend = "revised-simplex:" + ("sparse" if sf.is_sparse else "dense")
    if result.status is not SolveStatus.OPTIMAL:
        return LPSolution(
            status=result.status,
            iterations=result.iterations,
            backend=backend,
            diagnostics=diagnostics,
        )
    x = sf.recover_x(result.y)
    objective = sf.recover_objective(result.objective)
    basis_labels = (
        tuple(labels[j] for j in result.basis.tolist())
        if result.basis is not None
        else None
    )
    return LPSolution(
        status=SolveStatus.OPTIMAL,
        objective_value=objective,
        x=x,
        iterations=result.iterations,
        backend=backend,
        basis_labels=basis_labels,
        diagnostics=diagnostics,
    )
