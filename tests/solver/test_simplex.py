"""Unit tests for the revised simplex, with HiGHS as the reference.

Every test is parametrized over HiGHS (``solve_lp``'s default backend) and
the in-repo revised simplex — both must give the textbook answers.
"""

import math

import numpy as np
import pytest

from repro.solver import (
    LinearProgram,
    RevisedSimplexOptions,
    Sense,
    SolveStatus,
    solve_lp,
    solve_lp_revised_simplex,
)

SOLVERS = [
    pytest.param(solve_lp, id="highs"),
    pytest.param(solve_lp_revised_simplex, id="revised"),
]


@pytest.fixture(params=SOLVERS)
def solver(request):
    return request.param


class TestTextbookProblems:
    def test_two_variable_max(self, solver):
        # max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> opt 36 at (2, 6)
        lp = LinearProgram(maximize=True)
        x = lp.add_variable("x", objective=3.0)
        y = lp.add_variable("y", objective=5.0)
        lp.add_constraint({x: 1.0}, Sense.LE, 4.0)
        lp.add_constraint({y: 2.0}, Sense.LE, 12.0)
        lp.add_constraint({x: 3.0, y: 2.0}, Sense.LE, 18.0)
        solution = solver(lp)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(36.0)
        assert solution.x == pytest.approx([2.0, 6.0])

    def test_minimization(self, solver):
        # min 2x + 3y  s.t. x + y >= 4, x >= 1 -> opt at (4, 0) value 8
        lp = LinearProgram(maximize=False)
        x = lp.add_variable("x", objective=2.0)
        y = lp.add_variable("y", objective=3.0)
        lp.add_constraint({x: 1.0, y: 1.0}, Sense.GE, 4.0)
        lp.add_constraint({x: 1.0}, Sense.GE, 1.0)
        solution = solver(lp)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(8.0)

    def test_equality_constraints(self, solver):
        # max x + y  s.t. x + y == 5, x <= 3 -> value 5
        lp = LinearProgram(maximize=True)
        x = lp.add_variable("x", objective=1.0)
        y = lp.add_variable("y", objective=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, Sense.EQ, 5.0)
        lp.add_constraint({x: 1.0}, Sense.LE, 3.0)
        solution = solver(lp)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(5.0)

    def test_degenerate_lp(self, solver):
        # Multiple constraints meeting at the optimum (degeneracy).
        lp = LinearProgram(maximize=True)
        x = lp.add_variable("x", objective=1.0)
        y = lp.add_variable("y", objective=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, Sense.LE, 2.0)
        lp.add_constraint({x: 1.0}, Sense.LE, 1.0)
        lp.add_constraint({y: 1.0}, Sense.LE, 1.0)
        lp.add_constraint({x: 2.0, y: 1.0}, Sense.LE, 3.0)
        solution = solver(lp)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(2.0)

    def test_beale_cycling_example(self, solver):
        """Beale's classic cycling LP must terminate (Bland fallback)."""
        lp = LinearProgram(maximize=False)
        x1 = lp.add_variable("x1", objective=-0.75)
        x2 = lp.add_variable("x2", objective=150.0)
        x3 = lp.add_variable("x3", objective=-0.02)
        x4 = lp.add_variable("x4", objective=6.0)
        lp.add_constraint({x1: 0.25, x2: -60.0, x3: -0.04, x4: 9.0}, Sense.LE, 0.0)
        lp.add_constraint({x1: 0.5, x2: -90.0, x3: -0.02, x4: 3.0}, Sense.LE, 0.0)
        lp.add_constraint({x3: 1.0}, Sense.LE, 1.0)
        solution = solver(lp)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(-0.05)


class TestStatuses:
    def test_infeasible(self, solver):
        lp = LinearProgram(maximize=True)
        x = lp.add_variable("x", objective=1.0)
        lp.add_constraint({x: 1.0}, Sense.LE, 1.0)
        lp.add_constraint({x: 1.0}, Sense.GE, 2.0)
        assert solver(lp).status is SolveStatus.INFEASIBLE

    def test_unbounded(self, solver):
        lp = LinearProgram(maximize=True)
        x = lp.add_variable("x", objective=1.0)
        y = lp.add_variable("y", objective=0.0)
        lp.add_constraint({y: 1.0}, Sense.LE, 1.0)
        assert solver(lp).status is SolveStatus.UNBOUNDED

    def test_unbounded_minimization_with_free_variable(self, solver):
        lp = LinearProgram(maximize=False)
        x = lp.add_variable("x", lower=-math.inf, objective=1.0)
        y = lp.add_variable("y")
        lp.add_constraint({y: 1.0}, Sense.LE, 5.0)
        assert solver(lp).status is SolveStatus.UNBOUNDED

    def test_no_constraints_bounded(self, solver):
        lp = LinearProgram(maximize=False)
        lp.add_variable("x", objective=2.0)
        solution = solver(lp)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(0.0)

    def test_no_constraints_unbounded(self, solver):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=2.0)
        assert solver(lp).status is SolveStatus.UNBOUNDED

    def test_iteration_limit_reported(self):
        lp = LinearProgram(maximize=True)
        variables = [lp.add_variable(f"x{i}", objective=1.0) for i in range(10)]
        for i in range(9):
            lp.add_constraint(
                {variables[i]: 1.0, variables[i + 1]: 1.0}, Sense.LE, 1.0
            )
        options = RevisedSimplexOptions(max_iterations=1)
        solution = solve_lp_revised_simplex(lp, options)
        assert solution.status is SolveStatus.ITERATION_LIMIT


class TestBoundsHandling:
    def test_variable_bounds_respected(self, solver):
        lp = LinearProgram(maximize=True)
        x = lp.add_variable("x", lower=1.0, upper=3.0, objective=1.0)
        y = lp.add_variable("y", lower=0.5, upper=2.0, objective=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, Sense.LE, 4.0)
        solution = solver(lp)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(4.0)
        assert 1.0 - 1e-7 <= solution.x[0] <= 3.0 + 1e-7
        assert 0.5 - 1e-7 <= solution.x[1] <= 2.0 + 1e-7

    def test_negative_lower_bounds(self, solver):
        # min x + y with x, y >= -2 and x + y >= -3.
        lp = LinearProgram(maximize=False)
        x = lp.add_variable("x", lower=-2.0, objective=1.0)
        y = lp.add_variable("y", lower=-2.0, objective=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, Sense.GE, -3.0)
        solution = solver(lp)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(-3.0)

    def test_free_variable_reaches_negative_optimum(self, solver):
        lp = LinearProgram(maximize=False)
        x = lp.add_variable("x", lower=-math.inf, objective=1.0)
        lp.add_constraint({x: 1.0}, Sense.GE, -10.0)
        solution = solver(lp)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(-10.0)
        assert solution.x[0] == pytest.approx(-10.0)

    def test_fixed_variable(self, solver):
        lp = LinearProgram(maximize=True)
        x = lp.add_variable("x", lower=2.0, upper=2.0, objective=5.0)
        y = lp.add_variable("y", upper=1.0, objective=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, Sense.LE, 10.0)
        solution = solver(lp)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(11.0)
        assert solution.x[0] == pytest.approx(2.0)


class TestSolutionValidity:
    """The returned point must always satisfy the program it solved."""

    def test_solution_is_feasible_for_original_program(self, solver):
        rng = np.random.default_rng(0)
        for trial in range(20):
            lp = LinearProgram(maximize=True)
            n = int(rng.integers(2, 6))
            for j in range(n):
                lp.add_variable(f"x{j}", upper=float(rng.uniform(1, 5)),
                                objective=float(rng.uniform(0, 3)))
            for _ in range(int(rng.integers(1, 5))):
                coeffs = {
                    j: float(rng.uniform(0.1, 2.0))
                    for j in range(n)
                    if rng.random() < 0.7
                }
                if coeffs:
                    lp.add_constraint(coeffs, Sense.LE, float(rng.uniform(2, 10)))
            solution = solver(lp)
            assert solution.is_optimal, f"trial {trial} not optimal"
            assert lp.is_feasible(solution.x), f"trial {trial} infeasible point"
            assert solution.objective_value == pytest.approx(
                lp.objective_value(solution.x)
            )

    def test_revised_refactorization_consistency(self):
        """Frequent refactorization must not change the answer."""
        lp = LinearProgram(maximize=True)
        variables = [lp.add_variable(f"x{j}", objective=float(j + 1)) for j in range(8)]
        for i in range(8):
            coeffs = {variables[j]: 1.0 for j in range(8) if (i + j) % 3 != 0}
            lp.add_constraint(coeffs, Sense.LE, float(5 + i))
        every_pivot = solve_lp_revised_simplex(
            lp, RevisedSimplexOptions(refactor_every=1)
        )
        rarely = solve_lp_revised_simplex(
            lp, RevisedSimplexOptions(refactor_every=10_000)
        )
        assert every_pivot.objective_value == pytest.approx(rarely.objective_value)
