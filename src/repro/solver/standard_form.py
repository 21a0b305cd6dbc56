"""Conversion of a general LP to computational standard form.

Standard form here means::

    minimize    c @ y
    subject to  A @ y == b,   y >= 0,   b >= 0

which is what the two-phase simplex consumes.  The conversion handles:

* maximization (objective negated),
* finite lower bounds (variable shifted),
* upper bounds that a shifted/mirrored variable cannot absorb (extra row),
* free variables (split into positive and negative parts),
* fixed variables (substituted into the right-hand sides),
* ``<=`` / ``>=`` rows (slack / surplus columns) and negative ``b`` (row flip).

The constraint matrix is assembled as COO triplets (taken straight from
:meth:`LinearProgram.constraints_coo`, so bulk builders that primed the
triplet cache pay no per-coefficient Python cost) and emitted either as a
dense array or as a :class:`~repro.solver.sparse.CSCMatrix` — the wide
benchmark LP never has to materialize its ``m x n`` dense form.  Callers
pick the representation via ``sparse=True/False``; ``sparse=None`` applies
the size heuristic :func:`prefer_sparse`.

A :class:`StandardForm` remembers enough to map a standard-form point back to
the original variable space and objective sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.solver.problem import LinearProgram, Sense
from repro.solver.sparse import CSCMatrix, DenseMatrix

#: Above this many cells (rows x columns, artificials included) the auto
#: heuristic switches to the CSC representation: the break-even sits where
#: the dense matrix stops fitting comfortably in cache and pricing cost
#: starts to be dominated by the O(m*n) dense matvec.
DENSE_CELL_LIMIT = 200_000


def prefer_sparse(num_rows: int, num_columns: int) -> bool:
    """Size heuristic: should this standard form use the CSC representation?

    Counts the phase-1 artificial columns too, since the revised simplex
    prices over ``[A | I]``.
    """
    return num_rows * (num_columns + num_rows) > DENSE_CELL_LIMIT


class _VarKind(Enum):
    SHIFTED = "shifted"  # x = lower + y
    MIRRORED = "mirrored"  # x = upper - y  (lower = -inf, upper finite)
    FREE = "free"  # x = y_pos - y_neg
    FIXED = "fixed"  # x = constant


@dataclass
class _VarMap:
    kind: _VarKind
    columns: tuple[int, ...]  # standard-form column indices used
    offset: float  # lower bound, upper bound, or fixed value


@dataclass
class StandardForm:
    """A standard-form LP plus the recipe to undo the transformation.

    The constraint matrix lives in exactly one of ``a_dense`` /``a_csc``;
    the :attr:`a` property densifies (and caches) on demand for dense-only
    consumers, and
    :meth:`matrix` returns the representation-agnostic operator the revised
    simplex consumes.
    """

    c: np.ndarray
    b: np.ndarray
    objective_offset: float
    maximize: bool
    num_original_variables: int
    _var_maps: list[_VarMap]
    a_dense: np.ndarray | None = None
    a_csc: CSCMatrix | None = None
    #: Per row, the index of a slack column with coefficient +1 (usable as the
    #: initial basic variable of that row), or -1 when the row needs a phase-1
    #: artificial.  All-inequality programs with nonnegative rhs — the
    #: benchmark LP — get a full crash basis and skip phase 1 entirely.
    basis_hint: np.ndarray | None = None
    #: Per slack column (columns ``num_structural..n-1`` in order), the row it
    #: belongs to.  Backs the stable column labels of :meth:`column_labels`.
    slack_rows: np.ndarray | None = None
    #: Per synthetic upper-bound row (rows ``num_lp_rows..m-1`` in order), the
    #: structural column it bounds — so ub-slack labels can name the bounded
    #: *variable* instead of a row position that shifts between re-builds.
    ub_columns: np.ndarray | None = None
    _shape: tuple[int, int] = field(default=(0, 0))

    def __post_init__(self) -> None:
        store = self.a_csc if self.a_csc is not None else self.a_dense
        if store is not None:
            self._shape = (int(store.shape[0]), int(store.shape[1]))

    @property
    def is_sparse(self) -> bool:
        return self.a_csc is not None

    @property
    def a(self) -> np.ndarray:
        """The constraint matrix as a dense array (materialized on demand)."""
        if self.a_dense is None:
            assert self.a_csc is not None
            self.a_dense = self.a_csc.to_dense()
        return self.a_dense

    def matrix(self) -> CSCMatrix | DenseMatrix:
        """The constraint matrix behind the sparse/dense solver interface."""
        if self.a_csc is not None:
            return self.a_csc
        return DenseMatrix(self.a)

    @property
    def num_rows(self) -> int:
        return self._shape[0]

    @property
    def num_columns(self) -> int:
        return self._shape[1]

    def recover_x(self, y: np.ndarray) -> np.ndarray:
        """Map a standard-form point ``y`` back to original variables."""
        x = np.zeros(self.num_original_variables, dtype=float)
        for index, mapping in enumerate(self._var_maps):
            if mapping.kind is _VarKind.FIXED:
                x[index] = mapping.offset
            elif mapping.kind is _VarKind.SHIFTED:
                x[index] = mapping.offset + y[mapping.columns[0]]
            elif mapping.kind is _VarKind.MIRRORED:
                x[index] = mapping.offset - y[mapping.columns[0]]
            else:  # FREE
                pos, neg = mapping.columns
                x[index] = y[pos] - y[neg]
        return x

    def recover_objective(self, standard_objective: float) -> float:
        """Map the standard-form (minimization) objective to the original sense."""
        value = standard_objective + self.objective_offset
        return -value if self.maximize else value

    def column_labels(self, lp: LinearProgram) -> list[str]:
        """Stable names for the standard-form columns of ``lp``.

        Structural columns carry the original variable's name (free splits
        as ``name:+`` / ``name:-``); slack columns carry
        ``slack:<constraint name>`` (upper-bound rows added by the
        conversion get synthetic ``__ub<row>`` names).  Labels survive
        re-builds of structurally similar programs — the carrier of the
        warm-start basis between LP re-solves.
        """
        labels: list[str] = [""] * self.num_columns
        for variable, mapping in zip(lp.variables, self._var_maps):
            if mapping.kind is _VarKind.FIXED:
                continue
            if mapping.kind is _VarKind.FREE:
                pos, neg = mapping.columns
                labels[pos] = f"{variable.name}:+"
                labels[neg] = f"{variable.name}:-"
            else:
                labels[mapping.columns[0]] = variable.name
        if self.slack_rows is not None:
            num_lp_rows = lp.num_constraints
            num_structural = self.num_columns - self.slack_rows.size
            for offset, row in enumerate(self.slack_rows.tolist()):
                if row < num_lp_rows:
                    name = lp.constraints[row].name
                else:
                    # Synthetic bound row: label by the bounded variable, a
                    # name that survives re-builds with shifted row counts.
                    column = int(self.ub_columns[row - num_lp_rows])
                    name = f"__ub:{labels[column]}"
                labels[num_structural + offset] = f"slack:{name}"
        return labels


def to_standard_form(lp: LinearProgram, *, sparse: bool | None = None) -> StandardForm:
    """Convert ``lp`` to :class:`StandardForm`.

    Args:
        lp: the program to convert (never mutated).
        sparse: force the CSC (True) or dense (False) representation;
            None applies :func:`prefer_sparse`.

    Raises:
        ValueError: if any variable has ``lower > upper`` (a trivially
            infeasible program).
    """
    num_original = lp.num_variables
    var_maps: list[_VarMap] = []
    columns_c: list[float] = []
    offset = 0.0
    # Sign convention: standard form minimizes; flip a maximization objective.
    sign = -1.0 if lp.maximize else 1.0

    # Per-original-variable remapping tables consumed by the vectorized
    # constraint rewrite below: the standard-form column (or -1 when the
    # variable was fixed), the entry sign (mirrored variables flip), the
    # substitution offset, and the second column of a free split.
    col_of = np.full(num_original, -1, dtype=np.int64)
    neg_col_of = np.full(num_original, -1, dtype=np.int64)
    var_sign = np.ones(num_original)
    var_offset = np.zeros(num_original)
    ub_cols: list[int] = []  # extra rows  y <= upper - lower
    ub_rhs: list[float] = []

    for variable in lp.variables:
        index = variable.index
        lower, upper = variable.lower, variable.upper
        cost = sign * variable.objective
        if lower > upper:
            raise ValueError(
                f"variable {variable.name!r} has empty domain [{lower}, {upper}]"
            )
        if lower == upper:
            var_maps.append(_VarMap(_VarKind.FIXED, (), lower))
            var_offset[index] = lower
            offset += cost * lower
            continue
        if math.isfinite(lower):
            column = len(columns_c)
            columns_c.append(cost)
            var_maps.append(_VarMap(_VarKind.SHIFTED, (column,), lower))
            col_of[index] = column
            var_offset[index] = lower
            offset += cost * lower
            if math.isfinite(upper):
                ub_cols.append(column)
                ub_rhs.append(upper - lower)
        elif math.isfinite(upper):
            column = len(columns_c)
            columns_c.append(-cost)
            var_maps.append(_VarMap(_VarKind.MIRRORED, (column,), upper))
            col_of[index] = column
            var_sign[index] = -1.0
            var_offset[index] = upper
            offset += cost * upper
        else:
            pos = len(columns_c)
            columns_c.append(cost)
            neg = len(columns_c)
            columns_c.append(-cost)
            var_maps.append(_VarMap(_VarKind.FREE, (pos, neg), 0.0))
            col_of[index] = pos
            neg_col_of[index] = neg

    num_structural = len(columns_c)
    num_lp_rows = lp.num_constraints
    senses = np.array(
        [0 if c.sense is Sense.EQ else (1 if c.sense is Sense.LE else -1)
         for c in lp.constraints],
        dtype=np.int64,
    )
    rhs = np.fromiter((c.rhs for c in lp.constraints), dtype=float, count=num_lp_rows)

    # Rewrite the constraint triplets over the standard-form columns, folding
    # the effect of shifted / mirrored / fixed variables into the right-hand
    # side — all as array ops over the COO arrays.
    coo_rows, coo_cols, coo_vals = lp.constraints_coo()
    if coo_rows.size:
        rhs_shift = np.bincount(
            coo_rows, weights=coo_vals * var_offset[coo_cols], minlength=num_lp_rows
        )
    else:
        rhs_shift = np.zeros(num_lp_rows)
    b_rows = rhs - rhs_shift

    keep = col_of[coo_cols] >= 0
    is_free = neg_col_of[coo_cols] >= 0
    free_any = bool(is_free.any())

    # Extra rows for two-sided bounds:  y_col <= upper - lower.
    num_ub = len(ub_cols)
    if num_ub:
        senses = np.concatenate([senses, np.ones(num_ub, dtype=np.int64)])
        b_rows = np.concatenate([b_rows, np.array(ub_rhs)])

    # One slack (+1 for <=, -1 for >=) column per inequality row.
    m = num_lp_rows + num_ub
    ineq = np.flatnonzero(senses != 0)
    num_slacks = ineq.size
    n = num_structural + num_slacks
    if sparse is None:
        sparse = prefer_sparse(m, n)

    # The CSC build wants triplets in (col, row) order.  When the program
    # has no free splits and no bound rows, the standard-form entries
    # inherit the LP triplets' own (col, row) order (``col_of`` is monotone
    # over kept variables, slack entries append with ascending fresh
    # columns), so a sort order cached on the LP — shared across cached-LP
    # re-solves — replaces the per-call O(nnz log nnz) lexsort.
    presorted = bool(sparse and not free_any and num_ub == 0 and coo_rows.size)
    if presorted:
        order = lp._coo_order
        if order is None or order.size != coo_rows.size:
            order = np.lexsort((coo_rows, coo_cols))
            lp._coo_order = order
        lp_positions = order[keep[order]]
    else:
        lp_positions = np.flatnonzero(keep)

    entry_rows = [coo_rows[lp_positions]]
    entry_cols = [col_of[coo_cols[lp_positions]]]
    entry_vals = [coo_vals[lp_positions] * var_sign[coo_cols[lp_positions]]]
    if free_any:
        entry_rows.append(coo_rows[is_free])
        entry_cols.append(neg_col_of[coo_cols[is_free]])
        entry_vals.append(-coo_vals[is_free])
    if num_ub:
        entry_rows.append(np.arange(num_lp_rows, num_lp_rows + num_ub, dtype=np.int64))
        entry_cols.append(np.array(ub_cols, dtype=np.int64))
        entry_vals.append(np.ones(num_ub))
    if num_slacks:
        entry_rows.append(ineq)
        entry_cols.append(np.arange(num_structural, n, dtype=np.int64))
        entry_vals.append(senses[ineq].astype(float))

    rows_all = np.concatenate(entry_rows) if entry_rows else np.empty(0, dtype=np.int64)
    cols_all = np.concatenate(entry_cols) if entry_cols else np.empty(0, dtype=np.int64)
    vals_all = np.concatenate(entry_vals) if entry_vals else np.empty(0)

    # Standard form wants b >= 0: flip the sign of negative rows.
    row_sign = np.where(b_rows < 0.0, -1.0, 1.0)
    b = b_rows * row_sign
    if rows_all.size:
        vals_all = vals_all * row_sign[rows_all]

    # Crash-basis hint: a slack whose (possibly flipped) coefficient is +1 can
    # serve as the row's initial basic variable, sparing an artificial.
    basis_hint = np.full(m, -1, dtype=np.int64)
    if num_slacks:
        usable = senses[ineq].astype(float) * row_sign[ineq] > 0.0
        basis_hint[ineq[usable]] = np.arange(num_structural, n, dtype=np.int64)[usable]

    c = np.zeros(n, dtype=float)
    c[:num_structural] = columns_c

    if sparse:
        a_csc = CSCMatrix.from_coo(
            (m, n), rows_all, cols_all, vals_all, presorted=presorted
        )
        a_dense = None
    else:
        a_csc = None
        a_dense = np.zeros((m, n), dtype=float)
        if rows_all.size:
            # add.at (not fancy assignment) so duplicate (row, col) triplets
            # accumulate exactly like the CSC path sums them.
            np.add.at(a_dense, (rows_all, cols_all), vals_all)

    return StandardForm(
        c=c,
        b=b,
        objective_offset=offset,
        maximize=lp.maximize,
        num_original_variables=num_original,
        _var_maps=var_maps,
        a_dense=a_dense,
        a_csc=a_csc,
        basis_hint=basis_hint,
        slack_rows=ineq,
        ub_columns=np.asarray(ub_cols, dtype=np.int64),
    )
