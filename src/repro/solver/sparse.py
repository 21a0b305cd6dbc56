"""Minimal pure-NumPy sparse (CSC) matrix for the LP solver stack.

The benchmark LP (1)-(4) is *wide* and extremely sparse: one column per
(user, admissible set) pair with only ``1 + |S|`` nonzeros each, over
``|U| + |V|`` rows.  Materializing it densely costs ``m x n`` doubles
(gigabytes at |U| = 4000+) and makes every simplex pricing pass O(m*n).
This module provides just enough compressed-sparse-column machinery for the
revised simplex:

* :meth:`CSCMatrix.from_coo` — build from triplets (duplicates are summed),
* :meth:`CSCMatrix.price` / :meth:`CSCMatrix.price_block` — the pricing
  product ``duals @ A[:, :allowed]`` as a single ``bincount`` segment sum,
* :meth:`CSCMatrix.column` — O(nnz_j) column extraction for the eta update,
* :meth:`CSCMatrix.gather_dense` — dense basis matrix for refactorization,
* :meth:`CSCMatrix.with_identity` — ``[A | I]`` for the phase-1 basis.

scipy.sparse is deliberately not used: the from-scratch backends must work
with NumPy alone (scipy is an optional dependency of this repository).

:class:`DenseMatrix` wraps an ``np.ndarray`` behind the same interface so
:class:`~repro.solver.revised_simplex._RevisedCore` is representation-
agnostic; :func:`repro.solver.api.solve_lp` picks the representation by
problem size.
"""

from __future__ import annotations

import numpy as np


class CSCMatrix:
    """An immutable ``m x n`` sparse matrix in compressed-sparse-column form.

    Attributes:
        shape: ``(m, n)``.
        indptr: ``(n + 1,)`` column pointers into ``indices``/``data``.
        indices: ``(nnz,)`` row index of each stored entry, ascending within
            a column.
        data: ``(nnz,)`` entry values.
    """

    __slots__ = ("shape", "indptr", "indices", "data", "_col_ids")

    def __init__(
        self,
        shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=float)
        self._col_ids: np.ndarray | None = None  # lazy, for price()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        *,
        presorted: bool = False,
    ) -> "CSCMatrix":
        """Build from COO triplets; duplicate ``(row, col)`` entries are summed.

        ``presorted=True`` asserts the triplets are already in ``(col, row)``
        lexicographic order and skips the lexsort — the caller's contract
        (e.g. :func:`~repro.solver.standard_form.to_standard_form` reusing a
        cached sort order); duplicates must then be adjacent, which sorted
        order guarantees.
        """
        m, n = shape
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if rows.size == 0:
            return cls((m, n), np.zeros(n + 1, dtype=np.int64),
                       np.empty(0, dtype=np.int64), np.empty(0))
        if not presorted:
            order = np.lexsort((rows, cols))
            rows, cols, vals = rows[order], cols[order], vals[order]
        # Collapse duplicates: boundaries of (col, row) runs.
        new_run = np.empty(rows.size, dtype=bool)
        new_run[0] = True
        np.logical_or(cols[1:] != cols[:-1], rows[1:] != rows[:-1], out=new_run[1:])
        starts = np.flatnonzero(new_run)
        data = np.add.reduceat(vals, starts)
        rows = rows[starts]
        cols = cols[starts]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, cols + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls((m, n), indptr, rows, data)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def _column_ids(self) -> np.ndarray:
        """Column index of every stored entry (cached)."""
        if self._col_ids is None:
            self._col_ids = np.repeat(
                np.arange(self.shape[1], dtype=np.int64), np.diff(self.indptr)
            )
        return self._col_ids

    # ------------------------------------------------------------------
    # Solver operations
    # ------------------------------------------------------------------
    def price(self, duals: np.ndarray, allowed: int) -> np.ndarray:
        """``duals @ A[:, :allowed]`` as one segment sum over the nonzeros."""
        end = int(self.indptr[allowed])
        contrib = duals[self.indices[:end]] * self.data[:end]
        return np.bincount(
            self._column_ids()[:end], weights=contrib, minlength=allowed
        )

    def price_block(self, duals: np.ndarray, start: int, stop: int) -> np.ndarray:
        """``duals @ A[:, start:stop]`` (partial pricing window)."""
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        contrib = duals[self.indices[lo:hi]] * self.data[lo:hi]
        return np.bincount(
            self._column_ids()[lo:hi] - start, weights=contrib, minlength=stop - start
        )

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of column ``j`` (views, not copies)."""
        lo, hi = int(self.indptr[j]), int(self.indptr[j + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def direction(self, basis_inverse: np.ndarray, j: int) -> np.ndarray:
        """``basis_inverse @ A[:, j]`` without densifying the column."""
        rows, vals = self.column(j)
        return basis_inverse[:, rows] @ vals

    def gather_dense(self, cols: np.ndarray) -> np.ndarray:
        """Dense ``m x k`` matrix of the selected columns (basis matrix)."""
        cols = np.asarray(cols, dtype=np.int64)
        out = np.zeros((self.shape[0], cols.size))
        for k, j in enumerate(cols.tolist()):
            rows, vals = self.column(j)
            out[rows, k] = vals
        return out

    def with_identity(self) -> "CSCMatrix":
        """``[A | I_m]`` — the phase-1 extension with artificial columns."""
        m, n = self.shape
        indptr = np.concatenate(
            [self.indptr, self.indptr[-1] + np.arange(1, m + 1, dtype=np.int64)]
        )
        indices = np.concatenate([self.indices, np.arange(m, dtype=np.int64)])
        data = np.concatenate([self.data, np.ones(m)])
        return CSCMatrix((m, n + m), indptr, indices, data)

    def with_column(self, column: np.ndarray) -> "CSCMatrix":
        """``[A | column]`` — the warm-start single-artificial extension."""
        m, n = self.shape
        rows = np.flatnonzero(column)
        indptr = np.concatenate(
            [self.indptr, [self.indptr[-1] + rows.size]]
        )
        indices = np.concatenate([self.indices, rows])
        data = np.concatenate([self.data, column[rows]])
        return CSCMatrix((m, n + 1), indptr, indices, data)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (small problems / tests only)."""
        m, n = self.shape
        out = np.zeros((m, n))
        if self.nnz:
            out[self.indices, self._column_ids()] = self.data
        return out


class DenseMatrix:
    """Dense ``np.ndarray`` behind the :class:`CSCMatrix` solver interface."""

    __slots__ = ("a", "shape")

    def __init__(self, a: np.ndarray):
        self.a = a
        self.shape = a.shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.a))

    def price(self, duals: np.ndarray, allowed: int) -> np.ndarray:
        return duals @ self.a[:, :allowed]

    def price_block(self, duals: np.ndarray, start: int, stop: int) -> np.ndarray:
        return duals @ self.a[:, start:stop]

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        col = self.a[:, j]
        rows = np.flatnonzero(col)
        return rows, col[rows]

    def direction(self, basis_inverse: np.ndarray, j: int) -> np.ndarray:
        return basis_inverse @ self.a[:, j]

    def gather_dense(self, cols: np.ndarray) -> np.ndarray:
        return self.a[:, np.asarray(cols, dtype=np.int64)]

    def with_identity(self) -> "DenseMatrix":
        return DenseMatrix(np.hstack([self.a, np.eye(self.shape[0])]))

    def with_column(self, column: np.ndarray) -> "DenseMatrix":
        return DenseMatrix(np.hstack([self.a, column[:, None]]))

    def to_dense(self) -> np.ndarray:
        return self.a
