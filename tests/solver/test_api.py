"""Unit tests for the solve_lp entry point: backend names, the empty
program, integer programs on HiGHS and cross-checks against the test
reference (``tests.util.reference_lp``)."""

import numpy as np
import pytest
from scipy.optimize._highspy import _core as highs_core

from repro.solver import LinearProgram, Sense, SolveStatus, solve_lp
from tests.util import reference_lp, stub_highs_run


def _highs(lp):
    solution = solve_lp(lp)
    return solution.status, solution.objective_value


#: ``solve_lp`` and the test reference, each answering ``(status, objective)``.
SOLVERS = {"reference": reference_lp, "scipy": _highs}


def _sample_lp():
    lp = LinearProgram(maximize=True)
    x = lp.add_variable("x", objective=3.0)
    y = lp.add_variable("y", objective=5.0)
    lp.add_constraint({x: 1.0}, Sense.LE, 4.0)
    lp.add_constraint({y: 2.0}, Sense.LE, 12.0)
    lp.add_constraint({x: 3.0, y: 2.0}, Sense.LE, 18.0)
    return lp


def _knapsack(values, weights, capacity, integer=True):
    lp = LinearProgram(maximize=True)
    for j, value in enumerate(values):
        lp.add_variable(f"x{j}", upper=1.0, objective=float(value), is_integer=integer)
    lp.add_constraint(
        {j: float(w) for j, w in enumerate(weights)}, Sense.LE, float(capacity)
    )
    return lp


class TestBackendSelection:
    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            solve_lp(_sample_lp(), backend="gurobi")

    @pytest.mark.parametrize("name", ["auto", "simplex", "revised-simplex"])
    def test_retired_backend_names_raise(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            solve_lp(_sample_lp(), backend=name)

    def test_default_backend_is_highs(self):
        assert solve_lp(_sample_lp()).backend == "scipy-highs"


class TestSolveLP:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_all_backends_agree(self, solver):
        status, objective = SOLVERS[solver](_sample_lp())
        assert status is SolveStatus.OPTIMAL
        assert objective == pytest.approx(36.0)

    def test_fully_presolved_program_goes_to_highs_unchanged(self):
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", lower=2.0, upper=2.0, objective=3.0)
        solution = solve_lp(lp, backend="scipy")
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(6.0)
        assert solution.x == pytest.approx([2.0])
        assert solution.backend == "scipy-highs"

    def test_solution_x_aligned_with_original_variables(self):
        lp = LinearProgram(maximize=True)
        fixed = lp.add_variable("fixed", lower=1.0, upper=1.0, objective=1.0)
        free = lp.add_variable("free", upper=2.0, objective=1.0)
        lp.add_constraint({fixed: 1.0, free: 1.0}, Sense.LE, 3.0)
        solution = solve_lp(lp)
        assert solution.x[fixed] == pytest.approx(1.0)
        assert solution.x[free] == pytest.approx(2.0)


class TestEmptyProgram:
    """A program without variables is answered without a backend."""

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("maximize", [True, False])
    def test_empty_program_is_optimal_at_zero(self, solver, maximize):
        status, objective = SOLVERS[solver](LinearProgram(maximize=maximize))
        assert status is SolveStatus.OPTIMAL
        assert objective == 0.0
        assert solve_lp(LinearProgram(maximize=maximize)).x.shape == (0,)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_satisfied_constant_rows_are_optimal(self, solver):
        lp = LinearProgram(maximize=True)
        lp.add_constraint({}, Sense.LE, 1.0)
        lp.add_constraint({}, Sense.GE, -1.0)
        lp.add_constraint({}, Sense.EQ, 0.0)
        status, objective = SOLVERS[solver](lp)
        assert status is SolveStatus.OPTIMAL
        assert objective == 0.0

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize(
        "sense, rhs", [(Sense.GE, 1.0), (Sense.LE, -1.0), (Sense.EQ, 2.0)]
    )
    def test_violated_constant_row_is_infeasible(self, solver, sense, rhs):
        lp = LinearProgram(maximize=True)
        lp.add_constraint({}, sense, rhs)
        assert SOLVERS[solver](lp)[0] is SolveStatus.INFEASIBLE


class TestIntegerPrograms:
    """Integer-marked programs go to HiGHS's MIP solver with a zero gap."""

    def test_small_knapsack_optimum(self):
        # values 10, 13, 7; weights 3, 4, 2; capacity 5 -> best is {10, 7} = 17.
        lp = _knapsack([10, 13, 7], [3, 4, 2], 5)
        solution = solve_lp(lp)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(17.0)
        assert solution.x == pytest.approx([1.0, 0.0, 1.0])
        assert solution.diagnostics["mip_gap"] == 0.0

    def test_gap_is_zero_when_optimal(self):
        solution = solve_lp(_knapsack([5, 4], [2, 3], 4))
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(5.0)
        assert solution.diagnostics["mip_gap"] == 0.0

    def test_lp_relaxation_is_an_upper_bound(self):
        relaxation = solve_lp(_knapsack([10, 13, 7], [3, 4, 2], 5, integer=False))
        integral = solve_lp(_knapsack([10, 13, 7], [3, 4, 2], 5))
        assert relaxation.objective_value >= integral.objective_value - 1e-9

    def test_fractional_relaxation_is_not_accepted(self):
        # Both items have value density 2, so the relaxation may split
        # them; the integer optimum is the second item alone.
        lp = _knapsack([6, 10], [3, 5], 5)
        solution = solve_lp(lp)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(10.0)

    def test_exhaustive_agreement_with_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            values = rng.uniform(1, 10, n)
            weights = rng.uniform(1, 5, n)
            capacity = float(weights.sum() * rng.uniform(0.3, 0.8))
            solution = solve_lp(_knapsack(values, weights, capacity))
            assert solution.is_optimal
            best = 0.0
            for mask in range(2**n):
                chosen = [(mask >> j) & 1 for j in range(n)]
                if np.dot(chosen, weights) <= capacity + 1e-9:
                    best = max(best, float(np.dot(chosen, values)))
            assert solution.objective_value == pytest.approx(best)

    def test_infeasible_ilp(self):
        lp = LinearProgram(maximize=True)
        x = lp.add_variable("x", upper=1.0, objective=1.0, is_integer=True)
        lp.add_constraint({x: 1.0}, Sense.GE, 2.0)
        assert solve_lp(lp).status is SolveStatus.INFEASIBLE

    def test_unbounded_ilp(self):
        # HiGHS's MIP solver reports "unbounded or infeasible" without
        # telling the two apart; the solution keeps its message.
        lp = LinearProgram(maximize=True)
        lp.add_variable("x", objective=1.0, is_integer=True)
        solution = solve_lp(lp)
        assert solution.status is SolveStatus.ERROR
        assert "unbounded" in solution.diagnostics["highs_message"]

    def test_continuous_variables_stay_continuous(self):
        # max x + y, x integer <= 1.5 -> x = 1; y continuous <= 1.5 -> y = 1.5.
        lp = LinearProgram(maximize=True)
        x = lp.add_variable("x", objective=1.0, is_integer=True)
        y = lp.add_variable("y", objective=1.0)
        lp.add_constraint({x: 1.0}, Sense.LE, 1.5)
        lp.add_constraint({y: 1.0}, Sense.LE, 1.5)
        solution = solve_lp(lp)
        assert solution.is_optimal
        assert solution.x[x] == pytest.approx(1.0)
        assert solution.x[y] == pytest.approx(1.5)
        assert solution.objective_value == pytest.approx(2.5)

    def test_minimization_ilp(self):
        # min 3x + 2y s.t. x + y >= 2.5 over binaries: x + y <= 2, infeasible.
        lp = LinearProgram(maximize=False)
        x = lp.add_variable("x", upper=1.0, objective=3.0, is_integer=True)
        y = lp.add_variable("y", upper=1.0, objective=2.0, is_integer=True)
        lp.add_constraint({x: 1.0, y: 1.0}, Sense.GE, 2.5)
        assert solve_lp(lp).status is SolveStatus.INFEASIBLE

    def test_minimization_ilp_feasible(self):
        # min 3x + 2y s.t. x + y >= 1.5 -> both must be 1, cost 5.
        lp = LinearProgram(maximize=False)
        x = lp.add_variable("x", upper=1.0, objective=3.0, is_integer=True)
        y = lp.add_variable("y", upper=1.0, objective=2.0, is_integer=True)
        lp.add_constraint({x: 1.0, y: 1.0}, Sense.GE, 1.5)
        solution = solve_lp(lp)
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(5.0)

    def test_integer_solution_is_exactly_integral(self):
        lp = _knapsack([3.3, 4.7, 1.2], [1, 2, 1], 2)
        solution = solve_lp(lp)
        assert solution.is_optimal
        for variable in lp.variables:
            value = solution.x[variable.index]
            assert value == pytest.approx(round(value), abs=1e-12)


class TestScipyCrossCheck:
    """``solve_lp`` must match the test reference on random LPs."""

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
        ours = solve_lp(lp)
        status, objective = reference_lp(lp)
        assert ours.is_optimal and status is SolveStatus.OPTIMAL
        assert ours.objective_value == pytest.approx(objective, abs=1e-6)

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
        status, objective = reference_lp(lp)
        ours = solve_lp(lp)
        assert ours.status == status
        if status.is_optimal:
            assert ours.objective_value == pytest.approx(objective, abs=1e-6)


#: HiGHS model statuses with a verdict of their own: linprog's status codes
#: 1 (iteration or time limit), 2 (infeasible) and 3 (unbounded).  Every
#: other status but ``kOptimal`` is an ``ERROR`` (linprog's code 4), and so
#: is ``kModelError``, which linprog counted as infeasible: a model HiGHS
#: could not load says nothing about feasibility.
HIGHS_VERDICTS = {
    "kTimeLimit": SolveStatus.ITERATION_LIMIT,
    "kIterationLimit": SolveStatus.ITERATION_LIMIT,
    "kInfeasible": SolveStatus.INFEASIBLE,
    "kUnbounded": SolveStatus.UNBOUNDED,
}

#: One HiGHS model status per linprog status code, the code's usual cause.
HIGHS_STATUS_OF_LINPROG_CODE = {
    1: "kIterationLimit",
    2: "kInfeasible",
    3: "kUnbounded",
    4: "kSolveError",
}


class TestHighsFailureReporting:
    """Each failure keeps the meaning linprog's status code gave it, and
    HiGHS's model status and its name ride along in the solution's
    diagnostics."""

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
        model_status = getattr(
            highs_core.HighsModelStatus, HIGHS_STATUS_OF_LINPROG_CODE[code]
        )
        message = highs_core._Highs().modelStatusToString(model_status)
        stub_highs_run(monkeypatch, model_status)
        solution = solve_lp(_sample_lp(), backend="scipy")
        assert solution.status is status
        assert solution.iterations == 7
        assert solution.diagnostics == {
            "highs_status": int(model_status),
            "highs_message": message,
        }

    @pytest.mark.parametrize(
        "name", sorted(set(highs_core.HighsModelStatus.__members__) - {"kOptimal"})
    )
    def test_every_highs_status_has_a_verdict(self, monkeypatch, name):
        model_status = getattr(highs_core.HighsModelStatus, name)
        stub_highs_run(monkeypatch, model_status)
        solution = solve_lp(_sample_lp())
        assert solution.status is HIGHS_VERDICTS.get(name, SolveStatus.ERROR)
        assert solution.diagnostics["highs_status"] == int(model_status)

    def test_success_carries_linprog_status(self):
        solution = solve_lp(_sample_lp(), backend="scipy")
        assert solution.is_optimal
        assert solution.diagnostics == {
            "highs_status": int(highs_core.HighsModelStatus.kOptimal),
            "highs_message": "Optimal",
        }
