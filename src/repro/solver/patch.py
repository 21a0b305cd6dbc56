"""Delta-patchable linear programs.

The churn loop used to rebuild the benchmark LP from scratch every tick —
O(|columns|) work to re-enumerate and re-sort a matrix that a 1% churn
batch barely touched.  This module makes the LP an *incrementally
maintained object* instead:

* :class:`LPPatch` — a declarative edit batch against a
  :class:`~repro.solver.problem.LinearProgram`: add/remove columns
  ((user, admissible-set) pairs) and rows, update right-hand sides,
  objective coefficients and bounds in place.  Names, not indices, key the
  edits, so patches survive the index moves earlier patches made.
* :func:`apply_lp_patch` — applies a patch in place.  Removals use
  swap-with-last (O(touched nnz) via the variable->rows incidence, never a
  full-matrix scan), additions append, and the cached COO triplets are
  revalidated incrementally — mask + remap + append — never rebuilt from
  the coefficient dicts.  The returned :class:`PatchApplication` journals
  every index move so callers can mirror side tables (assignments,
  per-user column lists) in O(delta).

The patched program is solved like any other: :func:`repro.solver.api.
solve_lp` hands HiGHS the maintained COO triplets directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.solver.problem import Constraint, LinearProgram, Sense, Variable


# ----------------------------------------------------------------------
# Patch description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PatchVariable:
    """A column to add: objective coefficient plus its row coefficients.

    ``coefficients`` are keyed by *constraint name* (existing rows or rows
    added by the same patch — rows are added before columns).
    """

    name: str
    objective: float
    coefficients: tuple[tuple[str, float], ...]
    lower: float = 0.0
    upper: float = math.inf
    is_integer: bool = False


@dataclass(frozen=True)
class PatchConstraint:
    """A row to add.  ``coefficients`` are keyed by *existing* variable
    names; columns added by the same patch carry their own coefficients."""

    name: str
    sense: Sense
    rhs: float
    coefficients: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class LPPatch:
    """One batch of edits against a :class:`LinearProgram`.

    Application order: remove variables, remove constraints, add
    constraints, add variables, then the in-place updates — so a name freed
    by a removal can be reused by an addition within the same patch.
    """

    remove_variables: tuple[str, ...] = ()
    remove_constraints: tuple[str, ...] = ()
    add_constraints: tuple[PatchConstraint, ...] = ()
    add_variables: tuple[PatchVariable, ...] = ()
    set_rhs: tuple[tuple[str, float], ...] = ()
    set_objective: tuple[tuple[str, float], ...] = ()
    set_bounds: tuple[tuple[str, float, float], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (
            self.remove_variables
            or self.remove_constraints
            or self.add_constraints
            or self.add_variables
            or self.set_rhs
            or self.set_objective
            or self.set_bounds
        )

    @property
    def structural(self) -> bool:
        """Whether the patch changes the constraint matrix shape/sparsity
        (bound edits count: they reshape the standard form)."""
        return bool(
            self.remove_variables
            or self.remove_constraints
            or self.add_constraints
            or self.add_variables
            or self.set_bounds
        )

    @property
    def rhs_only(self) -> bool:
        return bool(self.set_rhs) and not self.structural and not self.set_objective

    @property
    def objective_only(self) -> bool:
        return bool(self.set_objective) and not self.structural and not self.set_rhs


@dataclass
class PatchApplication:
    """Journal of one :func:`apply_lp_patch` call.

    ``variable_map`` / ``constraint_map`` take an index *as of before the
    patch* to its index afterwards (-1 when removed) — the O(delta)-free
    way for callers to relocate cached indices.  ``variable_moves`` /
    ``constraint_moves`` journal the individual swap-with-last steps
    ``(hole, moved_from)`` in application order for callers that mirror
    index-keyed side tables instead.
    """

    variable_map: np.ndarray
    constraint_map: np.ndarray
    variable_moves: list[tuple[int, int]] = field(default_factory=list)
    constraint_moves: list[tuple[int, int]] = field(default_factory=list)
    added_variables: list[int] = field(default_factory=list)
    added_constraints: list[int] = field(default_factory=list)
    structural: bool = False
    rhs_only: bool = False
    objective_only: bool = False


class PatchError(KeyError):
    """A patch referenced a name the program does not hold."""


def _require(mapping: dict[str, int], name: str, kind: str) -> int:
    index = mapping.get(name)
    if index is None:
        raise PatchError(f"patch references unknown {kind} {name!r}")
    return index


def apply_lp_patch(lp: LinearProgram, patch: LPPatch) -> PatchApplication:
    """Apply ``patch`` to ``lp`` in place; returns the move journal.

    The COO triplet cache is maintained incrementally (one vectorized
    mask/remap pass plus appends) rather than rebuilt from the row dicts.

    Raises:
        PatchError: when the patch names an unknown variable/constraint or
            adds a duplicate name.
    """
    var_index = lp.variable_index()
    con_index = lp.constraint_index()
    var_rows = lp.variable_rows()
    coo = lp._coo  # maintained below; None stays None (rebuilt lazily)

    num_vars0 = lp.num_variables
    num_cons0 = lp.num_constraints
    var_cur_of_orig = np.arange(num_vars0, dtype=np.int64)
    var_orig_of_cur = np.arange(num_vars0, dtype=np.int64)
    con_cur_of_orig = np.arange(num_cons0, dtype=np.int64)
    con_orig_of_cur = np.arange(num_cons0, dtype=np.int64)

    application = PatchApplication(
        variable_map=var_cur_of_orig,
        constraint_map=con_cur_of_orig,
        structural=patch.structural,
        rhs_only=patch.rhs_only,
        objective_only=patch.objective_only,
    )

    # --- remove variables (swap-with-last) ---------------------------------
    for name in patch.remove_variables:
        idx = _require(var_index, name, "variable")
        last = lp.num_variables - 1
        orig_removed = int(var_orig_of_cur[idx])
        for row in var_rows.pop(idx, ()):
            lp.constraints[row].coefficients.pop(idx, None)
        if idx != last:
            mover = lp.variables[last]
            for row in var_rows.get(last, ()):
                coefficients = lp.constraints[row].coefficients
                coefficients[idx] = coefficients.pop(last)
            lp.variables[idx] = mover
            mover.index = idx
            var_index[mover.name] = idx
            var_rows[idx] = var_rows.pop(last, set())
            moved_orig = int(var_orig_of_cur[last])
            var_orig_of_cur[idx] = moved_orig
            var_cur_of_orig[moved_orig] = idx
        else:
            var_rows.pop(last, None)
        var_cur_of_orig[orig_removed] = -1
        lp.variables.pop()
        del var_index[name]
        lp._names.discard(name)
        application.variable_moves.append((idx, last))

    # --- remove constraints (swap-with-last) -------------------------------
    for name in patch.remove_constraints:
        row = _require(con_index, name, "constraint")
        last = lp.num_constraints - 1
        orig_removed = int(con_orig_of_cur[row])
        for idx in lp.constraints[row].coefficients:
            rows_of = var_rows.get(idx)
            if rows_of is not None:
                rows_of.discard(row)
        if row != last:
            mover = lp.constraints[last]
            for idx in mover.coefficients:
                rows_of = var_rows.get(idx)
                if rows_of is not None:
                    rows_of.discard(last)
                    rows_of.add(row)
            lp.constraints[row] = mover
            con_index[mover.name] = row
            moved_orig = int(con_orig_of_cur[last])
            con_orig_of_cur[row] = moved_orig
            con_cur_of_orig[moved_orig] = row
        con_cur_of_orig[orig_removed] = -1
        lp.constraints.pop()
        del con_index[name]
        application.constraint_moves.append((row, last))

    # --- revalidate the COO cache for the removals -------------------------
    new_rows: list[np.ndarray] = []
    new_cols: list[np.ndarray] = []
    new_vals: list[np.ndarray] = []
    if coo is not None and (patch.remove_variables or patch.remove_constraints):
        rows0, cols0, vals0 = coo
        keep = (var_cur_of_orig[cols0] >= 0) & (con_cur_of_orig[rows0] >= 0)
        coo = (
            con_cur_of_orig[rows0[keep]],
            var_cur_of_orig[cols0[keep]],
            vals0[keep],
        )

    # --- add constraints ----------------------------------------------------
    for spec in patch.add_constraints:
        if spec.name in con_index:
            raise PatchError(f"patch adds duplicate constraint {spec.name!r}")
        row = lp.num_constraints
        coefficients: dict[int, float] = {}
        for var_name, coeff in spec.coefficients:
            if coeff == 0.0:
                continue
            idx = _require(var_index, var_name, "variable")
            coefficients[idx] = float(coeff)
            var_rows.setdefault(idx, set()).add(row)
        lp.constraints.append(
            Constraint(spec.name, coefficients, spec.sense, float(spec.rhs))
        )
        con_index[spec.name] = row
        application.added_constraints.append(row)
        if coo is not None and coefficients:
            count = len(coefficients)
            new_rows.append(np.full(count, row, dtype=np.int64))
            new_cols.append(
                np.fromiter(coefficients.keys(), dtype=np.int64, count=count)
            )
            new_vals.append(
                np.fromiter(coefficients.values(), dtype=float, count=count)
            )

    # --- add variables ------------------------------------------------------
    for spec in patch.add_variables:
        if spec.name in lp._names:
            raise PatchError(f"patch adds duplicate variable {spec.name!r}")
        if spec.lower > spec.upper:
            raise ValueError(
                f"variable {spec.name!r}: lower {spec.lower} > upper {spec.upper}"
            )
        index = lp.num_variables
        lp.variables.append(
            Variable(
                name=spec.name,
                index=index,
                lower=spec.lower,
                upper=spec.upper,
                objective=float(spec.objective),
                is_integer=spec.is_integer,
            )
        )
        lp._names.add(spec.name)
        var_index[spec.name] = index
        rows_of: set[int] = set()
        entry_rows: list[int] = []
        entry_vals: list[float] = []
        for con_name, coeff in spec.coefficients:
            if coeff == 0.0:
                continue
            row = _require(con_index, con_name, "constraint")
            lp.constraints[row].coefficients[index] = float(coeff)
            rows_of.add(row)
            entry_rows.append(row)
            entry_vals.append(float(coeff))
        var_rows[index] = rows_of
        application.added_variables.append(index)
        if coo is not None and entry_rows:
            count = len(entry_rows)
            new_rows.append(np.asarray(entry_rows, dtype=np.int64))
            new_cols.append(np.full(count, index, dtype=np.int64))
            new_vals.append(np.asarray(entry_vals, dtype=float))

    if coo is not None:
        if new_rows:
            rows0, cols0, vals0 = coo
            coo = (
                np.concatenate([rows0] + new_rows),
                np.concatenate([cols0] + new_cols),
                np.concatenate([vals0] + new_vals),
            )
        lp._coo = coo
    elif patch.structural:
        lp._coo = None

    # --- in-place updates ---------------------------------------------------
    for name, rhs in patch.set_rhs:
        lp.constraints[_require(con_index, name, "constraint")].rhs = float(rhs)
    for name, objective in patch.set_objective:
        lp.variables[_require(var_index, name, "variable")].objective = float(
            objective
        )
    for name, lower, upper in patch.set_bounds:
        if lower > upper:
            raise ValueError(f"variable {name!r}: lower {lower} > upper {upper}")
        variable = lp.variables[_require(var_index, name, "variable")]
        variable.lower = float(lower)
        variable.upper = float(upper)

    return application
