"""Unit tests for the unified solve_lp entry point and backend cross-checks."""

import numpy as np
import pytest

from repro.solver import (
    BACKENDS,
    LinearProgram,
    Sense,
    SolveStatus,
    resolve_backend,
    scipy_available,
    solve_lp,
)

CONCRETE_BACKENDS = [
    "simplex",
    "revised-simplex",
    "revised-simplex-dense",
    "revised-simplex-sparse",
] + (["scipy"] if scipy_available() else [])


def _sample_lp():
    lp = LinearProgram(maximize=True)
    x = lp.add_variable("x", objective=3.0)
    y = lp.add_variable("y", objective=5.0)
    lp.add_constraint({x: 1.0}, Sense.LE, 4.0)
    lp.add_constraint({y: 2.0}, Sense.LE, 12.0)
    lp.add_constraint({x: 3.0, y: 2.0}, Sense.LE, 18.0)
    return lp


class TestBackendSelection:
    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gurobi")

    def test_auto_resolves_to_concrete(self):
        assert resolve_backend("auto") in ("scipy", "revised-simplex")

    def test_concrete_names_pass_through(self):
        for name in BACKENDS:
            if name != "auto":
                assert resolve_backend(name) == name


class TestSolveLP:
    @pytest.mark.parametrize("backend", CONCRETE_BACKENDS)
    def test_all_backends_agree(self, backend):
        solution = solve_lp(_sample_lp(), backend=backend)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(36.0)

    @pytest.mark.parametrize("backend", CONCRETE_BACKENDS)
    def test_presolve_toggle_gives_same_answer(self, backend):
        with_presolve = solve_lp(_sample_lp(), backend=backend, presolve=True)
        without = solve_lp(_sample_lp(), backend=backend, presolve=False)
        assert with_presolve.objective_value == pytest.approx(without.objective_value)

    def test_presolve_detects_infeasibility_before_backend(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        lp.add_constraint({x: 1.0}, Sense.LE, 1.0)
        lp.add_constraint({x: 1.0}, Sense.GE, 2.0)
        solution = solve_lp(lp, backend="simplex")
        assert solution.status is SolveStatus.INFEASIBLE
        assert solution.backend == "presolve"

    @staticmethod
    def _fixed_variable_lp():
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", lower=2.0, upper=2.0, objective=3.0)
        return lp

    def test_fully_presolved_program(self):
        # Presolve runs in front of the in-repo simplex backends only.
        solution = solve_lp(self._fixed_variable_lp(), backend="simplex")
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(6.0)
        assert solution.x == pytest.approx([2.0])
        assert solution.backend == "presolve"

    @pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
    def test_fully_presolved_program_goes_to_highs_unchanged(self):
        solution = solve_lp(self._fixed_variable_lp(), backend="scipy")
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(6.0)
        assert solution.x == pytest.approx([2.0])
        assert solution.backend == "scipy-highs"

    def test_solution_x_aligned_with_original_variables(self):
        lp = LinearProgram(maximize=True)
        fixed = lp.add_variable("fixed", lower=1.0, upper=1.0, objective=1.0)
        free = lp.add_variable("free", upper=2.0, objective=1.0)
        lp.add_constraint({fixed: 1.0, free: 1.0}, Sense.LE, 3.0)
        solution = solve_lp(lp, backend="simplex")
        assert solution.x[fixed] == pytest.approx(1.0)
        assert solution.x[free] == pytest.approx(2.0)


@pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
class TestScipyCrossCheck:
    """The from-scratch backends must match HiGHS on random LPs."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_packing_lps(self, seed):
        rng = np.random.default_rng(seed)
        lp = LinearProgram(maximize=True)
        n = int(rng.integers(3, 10))
        m = int(rng.integers(2, 8))
        for j in range(n):
            lp.add_variable(f"x{j}", upper=1.0, objective=float(rng.uniform(0, 1)))
        for _ in range(m):
            coeffs = {
                j: 1.0 for j in range(n) if rng.random() < 0.5
            }
            if coeffs:
                lp.add_constraint(coeffs, Sense.LE, float(rng.integers(1, 4)))
        ours = solve_lp(lp, backend="simplex")
        revised = solve_lp(lp, backend="revised-simplex")
        reference = solve_lp(lp, backend="scipy")
        assert ours.is_optimal and revised.is_optimal and reference.is_optimal
        assert ours.objective_value == pytest.approx(
            reference.objective_value, abs=1e-6
        )
        assert revised.objective_value == pytest.approx(
            reference.objective_value, abs=1e-6
        )

    @pytest.mark.parametrize("seed", range(8, 12))
    def test_random_mixed_sense_lps(self, seed):
        rng = np.random.default_rng(seed)
        lp = LinearProgram(maximize=bool(rng.integers(2)))
        n = int(rng.integers(2, 7))
        for j in range(n):
            lp.add_variable(
                f"x{j}",
                lower=float(rng.uniform(-2, 0)),
                upper=float(rng.uniform(1, 4)),
                objective=float(rng.uniform(-2, 2)),
            )
        senses = [Sense.LE, Sense.GE, Sense.EQ]
        for _ in range(int(rng.integers(1, 4))):
            coeffs = {
                j: float(rng.uniform(-1, 1)) for j in range(n) if rng.random() < 0.8
            }
            if not coeffs:
                continue
            # Keep the RHS generous so the instance stays feasible.
            lp.add_constraint(coeffs, senses[int(rng.integers(3))], float(rng.uniform(2, 6)))
        reference = solve_lp(lp, backend="scipy")
        ours = solve_lp(lp, backend="simplex")
        assert ours.status == reference.status
        if reference.is_optimal:
            assert ours.objective_value == pytest.approx(
                reference.objective_value, abs=1e-6
            )


@pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
class TestHighsFailureReporting:
    """Each linprog failure code keeps its own meaning, and linprog's status
    and message ride along in the solution's diagnostics."""

    @pytest.mark.parametrize(
        "code, status",
        [
            (1, SolveStatus.ITERATION_LIMIT),
            (2, SolveStatus.INFEASIBLE),
            (3, SolveStatus.UNBOUNDED),
            (4, SolveStatus.ERROR),
        ],
    )
    def test_linprog_status_mapping(self, monkeypatch, code, status):
        import scipy.optimize

        def failing_linprog(*args, **kwargs):
            return scipy.optimize.OptimizeResult(
                status=code, success=False, message="stub message", nit=7
            )

        monkeypatch.setattr(scipy.optimize, "linprog", failing_linprog)
        solution = solve_lp(_sample_lp(), backend="scipy")
        assert solution.status is status
        assert solution.iterations == 7
        assert solution.diagnostics == {
            "linprog_status": code,
            "linprog_message": "stub message",
        }

    def test_success_carries_linprog_status(self):
        solution = solve_lp(_sample_lp(), backend="scipy")
        assert solution.is_optimal
        assert solution.diagnostics["linprog_status"] == 0
