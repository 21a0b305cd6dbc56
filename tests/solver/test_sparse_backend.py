"""Tests for the sparse LP substrate: CSC matrix, sparse standard form,
dense/sparse revised-simplex parity, and the ratio-test regression."""

import numpy as np
import pytest

from repro.solver import (
    CSCMatrix,
    DenseMatrix,
    LinearProgram,
    RevisedSimplexOptions,
    Sense,
    prefer_sparse,
    solve_lp,
    solve_lp_revised_simplex,
    to_standard_form,
)
from repro.solver.simplex import min_ratio_row


def _random_coo(rng, m, n, density=0.3):
    mask = rng.random((m, n)) < density
    rows, cols = np.nonzero(mask)
    vals = rng.uniform(-2.0, 2.0, rows.size)
    dense = np.zeros((m, n))
    dense[rows, cols] = vals
    return rows, cols, vals, dense


class TestCSCMatrix:
    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        rows, cols, vals, dense = _random_coo(rng, m, n)
        csc = CSCMatrix.from_coo((m, n), rows, cols, vals)
        np.testing.assert_allclose(csc.to_dense(), dense)
        assert csc.nnz == rows.size

    def test_duplicate_triplets_are_summed(self):
        csc = CSCMatrix.from_coo(
            (2, 2), rows=[0, 0, 1], cols=[1, 1, 0], vals=[2.0, 3.0, 4.0]
        )
        np.testing.assert_allclose(csc.to_dense(), [[0.0, 5.0], [4.0, 0.0]])
        assert csc.nnz == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_price_matches_dense_matvec(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 7, 11
        rows, cols, vals, dense = _random_coo(rng, m, n)
        csc = CSCMatrix.from_coo((m, n), rows, cols, vals)
        duals = rng.standard_normal(m)
        for allowed in (0, 1, 5, n):
            np.testing.assert_allclose(
                csc.price(duals, allowed), duals @ dense[:, :allowed]
            )
        np.testing.assert_allclose(
            csc.price_block(duals, 3, 9), duals @ dense[:, 3:9]
        )

    def test_column_and_direction(self):
        rng = np.random.default_rng(1)
        rows, cols, vals, dense = _random_coo(rng, 5, 6, density=0.5)
        csc = CSCMatrix.from_coo((5, 6), rows, cols, vals)
        inverse = rng.standard_normal((5, 5))
        for j in range(6):
            r, v = csc.column(j)
            col = np.zeros(5)
            col[r] = v
            np.testing.assert_allclose(col, dense[:, j])
            np.testing.assert_allclose(
                csc.direction(inverse, j), inverse @ dense[:, j]
            )

    def test_gather_and_identity_extension(self):
        rng = np.random.default_rng(2)
        rows, cols, vals, dense = _random_coo(rng, 4, 6, density=0.5)
        csc = CSCMatrix.from_coo((4, 6), rows, cols, vals)
        picks = np.array([5, 0, 3, 3])
        np.testing.assert_allclose(csc.gather_dense(picks), dense[:, picks])
        ext = csc.with_identity()
        np.testing.assert_allclose(
            ext.to_dense(), np.hstack([dense, np.eye(4)])
        )

    def test_dense_wrapper_matches(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((4, 7))
        wrapper = DenseMatrix(dense)
        duals = rng.standard_normal(4)
        np.testing.assert_allclose(wrapper.price(duals, 5), duals @ dense[:, :5])
        rows, vals = wrapper.column(2)
        col = np.zeros(4)
        col[rows] = vals
        np.testing.assert_allclose(col, dense[:, 2])


def _random_lp(seed, free_vars=False):
    rng = np.random.default_rng(seed)
    lp = LinearProgram(maximize=bool(rng.integers(2)))
    n = int(rng.integers(3, 9))
    for j in range(n):
        kind = rng.random()
        if free_vars and kind < 0.2:
            lower, upper = -np.inf, np.inf
        elif kind < 0.4:
            lower, upper = float(rng.uniform(-3, 0)), np.inf
        elif kind < 0.6:
            lower, upper = -np.inf, float(rng.uniform(0, 3))
        else:
            lower, upper = 0.0, float(rng.uniform(1, 4))
        lp.add_variable(
            f"x{j}", lower=lower, upper=upper, objective=float(rng.uniform(-2, 2))
        )
    senses = [Sense.LE, Sense.GE, Sense.EQ]
    for _ in range(int(rng.integers(1, 5))):
        coeffs = {
            j: float(rng.uniform(-1, 1)) for j in range(n) if rng.random() < 0.7
        }
        if coeffs:
            lp.add_constraint(
                coeffs, senses[int(rng.integers(3))], float(rng.uniform(2, 6))
            )
    return lp


class TestSparseStandardForm:
    @pytest.mark.parametrize("seed", range(10))
    def test_sparse_and_dense_paths_build_the_same_matrix(self, seed):
        lp = _random_lp(seed, free_vars=True)
        dense_sf = to_standard_form(lp, sparse=False)
        sparse_sf = to_standard_form(lp, sparse=True)
        assert sparse_sf.is_sparse and not dense_sf.is_sparse
        np.testing.assert_array_equal(sparse_sf.a, dense_sf.a)
        np.testing.assert_array_equal(sparse_sf.b, dense_sf.b)
        np.testing.assert_array_equal(sparse_sf.c, dense_sf.c)
        np.testing.assert_array_equal(sparse_sf.basis_hint, dense_sf.basis_hint)
        assert sparse_sf.objective_offset == dense_sf.objective_offset

    def test_basis_hint_marks_usable_slacks(self):
        lp = LinearProgram(maximize=False)
        x = lp.add_variable("x", objective=1.0)
        lp.add_constraint({x: 1.0}, Sense.LE, 4.0)   # slack +1: usable
        lp.add_constraint({x: 1.0}, Sense.GE, 1.0)   # surplus -1: not usable
        lp.add_constraint({x: 1.0}, Sense.EQ, 2.0)   # no slack at all
        lp.add_constraint({x: -1.0}, Sense.GE, -5.0)  # row flips: slack +1
        sf = to_standard_form(lp)
        hint = sf.basis_hint
        assert hint[0] >= 0
        assert hint[1] == -1
        assert hint[2] == -1
        assert hint[3] >= 0

    def test_prefer_sparse_threshold(self):
        assert not prefer_sparse(10, 10)
        assert prefer_sparse(1000, 10_000)


class TestDenseSparseParity:
    """Same pivots, same optimum — the representation must be invisible."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_lps_agree(self, seed):
        lp = _random_lp(seed)
        dense = solve_lp_revised_simplex(lp, RevisedSimplexOptions(sparse=False))
        sparse = solve_lp_revised_simplex(lp, RevisedSimplexOptions(sparse=True))
        assert dense.status == sparse.status
        assert dense.iterations == sparse.iterations  # identical pivot path
        if dense.is_optimal:
            assert sparse.objective_value == pytest.approx(
                dense.objective_value, abs=1e-9
            )
            np.testing.assert_allclose(sparse.x, dense.x, atol=1e-7)

    @pytest.mark.parametrize("seed", range(6))
    def test_wide_packing_lps_agree(self, seed):
        rng = np.random.default_rng(seed)
        lp = LinearProgram(maximize=True)
        n, m = 60, 8
        for j in range(n):
            lp.add_variable(f"x{j}", upper=1.0, objective=float(rng.uniform(0, 1)))
        for i in range(m):
            coeffs = {j: 1.0 for j in range(n) if rng.random() < 0.3}
            if coeffs:
                lp.add_constraint(coeffs, Sense.LE, float(rng.integers(1, 5)))
        dense = solve_lp_revised_simplex(lp, RevisedSimplexOptions(sparse=False))
        sparse = solve_lp_revised_simplex(lp, RevisedSimplexOptions(sparse=True))
        assert dense.is_optimal and sparse.is_optimal
        assert dense.iterations == sparse.iterations
        assert sparse.objective_value == pytest.approx(
            dense.objective_value, abs=1e-9
        )

    def test_benchmark_lp_parity(self):
        from repro.core.lp_formulation import build_benchmark_lp
        from repro.datagen import SyntheticConfig, generate_synthetic

        instance = generate_synthetic(
            SyntheticConfig(num_users=60, num_events=10), seed=0
        )
        bench = build_benchmark_lp(instance, implied_upper=True)
        dense = solve_lp_revised_simplex(bench.lp, RevisedSimplexOptions(sparse=False))
        sparse = solve_lp_revised_simplex(bench.lp, RevisedSimplexOptions(sparse=True))
        assert dense.is_optimal and sparse.is_optimal
        assert sparse.objective_value == pytest.approx(
            dense.objective_value, abs=1e-8
        )
        reference = solve_lp(bench.lp, backend="scipy")
        assert sparse.objective_value == pytest.approx(
            reference.objective_value, abs=1e-6
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_partial_pricing_toggle_reaches_same_optimum(self, seed):
        lp = _random_lp(seed)
        on = solve_lp_revised_simplex(
            lp, RevisedSimplexOptions(sparse=True, partial_pricing=True, pricing_block=2)
        )
        off = solve_lp_revised_simplex(
            lp, RevisedSimplexOptions(sparse=True, partial_pricing=False)
        )
        assert on.status == off.status
        if on.is_optimal:
            assert on.objective_value == pytest.approx(off.objective_value, abs=1e-8)


class TestRatioTestRegression:
    """The tie ratchet: ties must be anchored at the true minimum ratio."""

    def _drifting_case(self):
        # Ratios climb by 0.8*tol per row while basis indices descend, so the
        # historical loop re-anchored on every row and walked away from the
        # true minimum; only rows 0 and 1 are genuine ties of the minimum.
        tol = 1e-3
        direction = np.ones(4)
        rhs = np.array([0.0, 0.0008, 0.0016, 0.0024])
        basis = np.array([40, 30, 20, 10], dtype=np.int64)
        return direction, rhs, basis, tol

    def _legacy_ratio_test(self, direction, rhs, basis, tol):
        best_row, best_ratio = None, np.inf
        for row in range(direction.shape[0]):
            if direction[row] > tol:
                ratio = rhs[row] / direction[row]
                better = ratio < best_ratio - tol
                tie = ratio < best_ratio + tol and (
                    best_row is None or basis[row] < basis[best_row]
                )
                if better or tie:
                    best_ratio = ratio
                    best_row = row
        return best_row

    def test_legacy_loop_drifts_off_the_minimum(self):
        direction, rhs, basis, tol = self._drifting_case()
        assert self._legacy_ratio_test(direction, rhs, basis, tol) == 3

    def test_fixed_ratio_test_stays_on_the_minimum(self):
        direction, rhs, basis, tol = self._drifting_case()
        row = min_ratio_row(direction, rhs, basis, tol)
        # True minimum is row 0; row 1 is within tol of it and has the
        # smaller basis index, so the Bland tie-break picks it.
        assert row == 1
        # The pivot step from the chosen row must keep every basic value
        # feasible — the drifted row 3 would have driven rows 0-2 negative.
        step = rhs[row] / direction[row]
        assert np.all(rhs - step * direction >= -tol)

    def test_unbounded_column_returns_none(self):
        basis = np.array([0, 1], dtype=np.int64)
        assert min_ratio_row(np.array([-1.0, 0.0]), np.ones(2), basis, 1e-9) is None

    def test_unique_minimum_needs_no_tie_break(self):
        basis = np.array([5, 4, 3], dtype=np.int64)
        row = min_ratio_row(
            np.array([1.0, 2.0, 1.0]), np.array([5.0, 2.0, 4.0]), basis, 1e-9
        )
        assert row == 1
