"""LP presolve: cheap reductions applied before the in-repo simplex backends.

:func:`repro.solver.api.solve_lp` runs these passes only in front of the
tableau and revised simplex.  The HiGHS backend gets the program unchanged:
HiGHS presolves internally, and it solves the benchmark LP faster with the
``x <= 1`` bounds that pass 5 would drop.

Implemented reductions (applied to a fixed point):

1. **Bound sanity** — a variable with ``lower > upper`` makes the program
   infeasible immediately.
2. **Fixed variables** (``lower == upper``) are substituted into every
   constraint and the objective.
3. **Empty constraints** (no nonzero coefficients) are checked against their
   right-hand side and dropped, or declare infeasibility.
4. **Singleton rows** (one nonzero coefficient) are converted into variable
   bounds, possibly fixing the variable and triggering another pass.
5. **Implied (redundant) upper bounds** — a ``<=``/``==`` row whose minimum
   activity already caps a variable below its declared upper bound makes
   that bound redundant, and it is dropped (relaxed to ``+inf``).  This is
   what keeps the wide benchmark LP small: every ``x_{u,S} <= 1`` bound is
   implied by the user's row (2), so no per-variable bound row reaches the
   standard form and the simplex runs over ``|U| + |V|`` rows instead of
   ``|U| + |V| + n``.

When no reduction applies, the *original* program object is returned
untouched (no O(nnz) defensive copy).  When only variable bounds changed
(the benchmark LP root relaxation: the implied-bound pass fires, nothing
else does), the rebuilt program inherits the original's COO triplet cache,
so a cache primed by ``build_benchmark_lp`` survives presolve and
``to_standard_form`` never re-walks the coefficient dicts.

The result keeps a recovery recipe so a solution of the reduced program can
be lifted back to the original variable space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.solver.problem import Constraint, LinearProgram, Sense, Variable

_TOL = 1e-9
#: Primal feasibility tolerance for *infeasibility declarations*: matches
#: ``Constraint.is_satisfied`` and the HiGHS default, so presolve never
#: declares infeasible a program the reference backend would solve (e.g. a
#: singleton row ``x <= -6e-8`` against ``x >= 0``).
_FEAS_TOL = 1e-7


class PresolveStatus(Enum):
    REDUCED = "reduced"
    INFEASIBLE = "infeasible"


@dataclass
class PresolveResult:
    """Outcome of :func:`presolve`.

    Attributes:
        status: ``REDUCED`` (use ``lp``) or ``INFEASIBLE``.
        lp: the reduced program (None when infeasible).
        fixed_values: original variable index -> value pinned by presolve.
        kept_variables: original indices of the reduced program's variables,
            in order.
        objective_offset: objective contribution of the fixed variables.
        infeasibility_reason: human-readable explanation when infeasible.
    """

    status: PresolveStatus
    lp: LinearProgram | None = None
    fixed_values: dict[int, float] = field(default_factory=dict)
    kept_variables: list[int] = field(default_factory=list)
    objective_offset: float = 0.0
    infeasibility_reason: str = ""

    def recover_x(self, reduced_x: np.ndarray, num_original: int) -> np.ndarray:
        """Lift a reduced-space solution back to the original variables."""
        x = np.zeros(num_original, dtype=float)
        for original_index, value in self.fixed_values.items():
            x[original_index] = value
        for reduced_index, original_index in enumerate(self.kept_variables):
            x[original_index] = reduced_x[reduced_index]
        return x


def _tighten(
    lower: float, upper: float, sense: Sense, bound: float
) -> tuple[float, float]:
    """Apply a singleton-row bound ``x sense bound`` to ``[lower, upper]``."""
    if sense is Sense.LE:
        upper = min(upper, bound)
    elif sense is Sense.GE:
        lower = max(lower, bound)
    else:
        lower = max(lower, bound)
        upper = min(upper, bound)
    return lower, upper


def _drop_implied_upper_bounds(
    rows: list[Constraint], bounds: list[tuple[float, float]]
) -> bool:
    """Relax variable upper bounds that a ``<=``/``==`` row already implies.

    For a row ``sum_j a_j x_j <= r`` the minimum activity excluding ``x_i``
    (lower bounds where ``a_j > 0``, upper bounds where ``a_j < 0``) yields
    ``x_i <= (r - min_act_other) / a_i`` whenever ``a_i > 0``; if that cap is
    at or below the declared upper bound, the bound is redundant and is
    dropped.  Returns whether any bound was dropped.
    """
    changed = False
    for row in rows:
        if row.sense is Sense.GE or len(row.coefficients) < 2:
            continue
        min_activity = 0.0
        for index, coeff in row.coefficients.items():
            lower, upper = bounds[index]
            contribution = coeff * (lower if coeff > 0.0 else upper)
            if not math.isfinite(contribution):
                min_activity = -math.inf
                break
            min_activity += contribution
        if not math.isfinite(min_activity):
            continue
        for index, coeff in row.coefficients.items():
            if coeff <= 0.0:
                continue
            lower, upper = bounds[index]
            if not math.isfinite(upper):
                continue
            implied = (row.rhs - (min_activity - coeff * lower)) / coeff
            if implied <= upper + _TOL:
                bounds[index] = (lower, math.inf)
                changed = True
    return changed


def presolve(lp: LinearProgram, max_passes: int = 10) -> PresolveResult:
    """Run the reduction passes on a copy of ``lp``.

    The input program is never mutated — and when nothing reduces, it is
    returned as-is (``result.lp is lp``), skipping the defensive rebuild.
    ``max_passes`` bounds the fix-substitute-tighten loop (each pass either
    fixes at least one more variable or is the last).
    """
    bounds = [(v.lower, v.upper) for v in lp.variables]
    fixed: dict[int, float] = {}
    active_rows: list[Constraint] = [
        Constraint(c.name, dict(c.coefficients), c.sense, c.rhs)
        for c in lp.constraints
    ]
    any_change = False

    for _ in range(max_passes):
        changed = False

        # Pass A: bound sanity and newly fixed variables.  A slightly
        # inverted domain (within the feasibility tolerance) is treated as
        # fixed at the midpoint, not infeasible — each bound is then violated
        # by at most _FEAS_TOL / 2.
        for index, (lower, upper) in enumerate(bounds):
            if index in fixed:
                continue
            if lower > upper + _FEAS_TOL:
                return PresolveResult(
                    PresolveStatus.INFEASIBLE,
                    infeasibility_reason=(
                        f"variable {lp.variables[index].name!r} has empty domain "
                        f"[{lower}, {upper}]"
                    ),
                )
            if math.isfinite(lower) and upper - lower <= _TOL:
                fixed[index] = lower if upper >= lower else 0.5 * (lower + upper)
                changed = True

        # Pass B: substitute fixed variables into rows.
        for row in active_rows:
            for index in [i for i in row.coefficients if i in fixed]:
                row.rhs -= row.coefficients.pop(index) * fixed[index]

        # Pass C: empty rows and singleton rows.
        remaining: list[Constraint] = []
        for row in active_rows:
            if not row.coefficients:
                satisfied = (
                    (row.sense is Sense.LE and 0.0 <= row.rhs + _FEAS_TOL)
                    or (row.sense is Sense.GE and 0.0 >= row.rhs - _FEAS_TOL)
                    or (row.sense is Sense.EQ and abs(row.rhs) <= _FEAS_TOL)
                )
                if not satisfied:
                    return PresolveResult(
                        PresolveStatus.INFEASIBLE,
                        infeasibility_reason=(
                            f"constraint {row.name!r} reduced to 0 {row.sense.value} "
                            f"{row.rhs}"
                        ),
                    )
                changed = True
                continue
            if len(row.coefficients) == 1:
                ((index, coeff),) = row.coefficients.items()
                bound = row.rhs / coeff
                sense = row.sense
                if coeff < 0 and sense is Sense.LE:
                    sense = Sense.GE
                elif coeff < 0 and sense is Sense.GE:
                    sense = Sense.LE
                lower, upper = bounds[index]
                bounds[index] = _tighten(lower, upper, sense, bound)
                changed = True
                continue
            remaining.append(row)
        active_rows = remaining

        any_change = any_change or changed
        if not changed:
            break

    # One final pass (outside the fixpoint loop: dropping an upper bound can
    # never enable reductions 1-4) that strips redundant upper bounds.
    any_change = _drop_implied_upper_bounds(active_rows, bounds) or any_change

    if not any_change:
        # Nothing reduced: hand back the original program object.
        return PresolveResult(
            PresolveStatus.REDUCED,
            lp=lp,
            kept_variables=list(range(lp.num_variables)),
        )

    # Assemble the reduced program.
    kept = [i for i in range(lp.num_variables) if i not in fixed]
    offset = sum(lp.variables[i].objective * value for i, value in fixed.items())
    reduced = LinearProgram(name=f"{lp.name}:presolved", maximize=lp.maximize)
    old_to_new: dict[int, int] = {}
    for new_index, old_index in enumerate(kept):
        original = lp.variables[old_index]
        lower, upper = bounds[old_index]
        reduced.add_variable(
            original.name,
            lower=lower,
            upper=upper,
            objective=original.objective,
            is_integer=original.is_integer,
        )
        old_to_new[old_index] = new_index
    for row in active_rows:
        reduced.add_constraint(
            {old_to_new[i]: coeff for i, coeff in row.coefficients.items()},
            row.sense,
            row.rhs,
            name=row.name,
        )
    if not fixed and len(active_rows) == lp.num_constraints:
        # Only variable bounds changed (the implied-bound pass, typically):
        # every row survived with its coefficients and column indices intact,
        # so the original program's COO triplet cache — if primed, e.g. by
        # build_benchmark_lp — still describes the reduced constraint matrix
        # (and any cached sort order of it remains valid).
        reduced._coo = lp._coo
        reduced._coo_order = lp._coo_order
    return PresolveResult(
        PresolveStatus.REDUCED,
        lp=reduced,
        fixed_values=dict(fixed),
        kept_variables=kept,
        objective_offset=offset,
    )
