"""Unit tests for the benchmark LP (1)-(4) construction."""

import numpy as np
import pytest

from repro.core import build_benchmark_lp, lp_upper_bound
from repro.core.exact import ExactILP
from repro.solver import Sense, solve_lp
from tests.util import random_instance, tiny_instance


class TestStructure:
    def test_one_variable_per_admissible_set(self):
        instance = tiny_instance()
        benchmark = build_benchmark_lp(instance)
        # A_10 = {(1,), (2,)}; A_11 = {(1,), (3,), (1,3)}; A_12 = {(2,), (3,),
        # (2,3)}; A_13 = {(3,)} -> 9 variables.
        assert benchmark.lp.num_variables == 9
        assert len(benchmark.assignments) == 9

    def test_constraint_counts(self):
        instance = tiny_instance()
        benchmark = build_benchmark_lp(instance)
        # One per user with sets (4) + one per event with bidders (3).
        assert benchmark.lp.num_constraints == 7

    def test_user_constraints_are_at_most_one(self):
        benchmark = build_benchmark_lp(tiny_instance())
        user_rows = [c for c in benchmark.lp.constraints if c.name.startswith("user[")]
        assert len(user_rows) == 4
        for row in user_rows:
            assert row.sense is Sense.LE
            assert row.rhs == 1.0
            assert all(coeff == 1.0 for coeff in row.coefficients.values())

    def test_event_constraints_use_capacity(self):
        instance = tiny_instance()
        benchmark = build_benchmark_lp(instance)
        event_rows = {
            c.name: c for c in benchmark.lp.constraints if c.name.startswith("event[")
        }
        assert event_rows["event[2]"].rhs == 1.0  # capacity of event 2
        assert event_rows["event[1]"].rhs == 2.0

    def test_objective_is_set_weight(self):
        instance = tiny_instance()
        benchmark = build_benchmark_lp(instance)
        for index, (user_id, events) in enumerate(benchmark.assignments):
            expected = sum(instance.weight(user_id, e) for e in events)
            assert benchmark.lp.variables[index].objective == pytest.approx(expected)

    def test_variables_bounded_zero_one(self):
        benchmark = build_benchmark_lp(tiny_instance())
        for variable in benchmark.lp.variables:
            assert variable.lower == 0.0
            assert variable.upper == 1.0

    def test_integer_flag(self):
        relaxed = build_benchmark_lp(tiny_instance())
        assert not relaxed.lp.has_integer_variables
        integral = build_benchmark_lp(tiny_instance(), integer=True)
        assert integral.lp.has_integer_variables

    def test_by_user_partitions_variables(self):
        benchmark = build_benchmark_lp(tiny_instance())
        all_indices = sorted(
            index for indices in benchmark.by_user.values() for index in indices
        )
        assert all_indices == list(range(benchmark.lp.num_variables))

    def test_empty_instance_gives_empty_lp(self):
        from repro.model import IGEPAInstance, NoConflict, TabulatedInterest
        from repro.social import Graph

        instance = IGEPAInstance([], [], NoConflict(), TabulatedInterest({}), Graph())
        benchmark = build_benchmark_lp(instance)
        assert benchmark.lp.num_variables == 0
        assert benchmark.lp.num_constraints == 0


class TestLemma1:
    """LP optimum >= ILP optimum == OPT."""

    @pytest.mark.parametrize("seed", range(5))
    def test_lp_bounds_exact_optimum(self, seed):
        instance = random_instance(
            seed=seed, num_events=4, num_users=6, max_bids=3
        )
        bound = lp_upper_bound(instance)
        exact = ExactILP().solve(instance)
        assert bound >= exact.utility - 1e-7

    def test_lp_solution_respects_constraints(self):
        instance = tiny_instance()
        benchmark = build_benchmark_lp(instance)
        solution = solve_lp(benchmark.lp)
        assert solution.is_optimal
        assert benchmark.lp.is_feasible(solution.x)

    def test_pairs_from_integral_solution(self):
        instance = tiny_instance()
        benchmark = build_benchmark_lp(instance, integer=True)
        x = np.zeros(benchmark.lp.num_variables)
        # Choose (10, (1,)) and (11, (1, 3)).
        target_indices = [
            i
            for i, (user_id, events) in enumerate(benchmark.assignments)
            if (user_id, events) in {(10, (1,)), (11, (1, 3))}
        ]
        x[target_indices] = 1.0
        pairs = benchmark.pairs_from_solution(x)
        assert sorted(pairs) == [(1, 10), (1, 11), (3, 11)]


def test_coo_cache_is_primed():
    """The triplets emitted by build_benchmark_lp must reach the solver
    as built: constraints_coo() hands back the primed cache."""
    from repro.datagen import SyntheticConfig, generate_synthetic

    instance = generate_synthetic(
        SyntheticConfig(num_users=20, num_events=5), seed=1
    )
    benchmark = build_benchmark_lp(instance)
    primed = benchmark.lp._coo
    assert primed is not None
    assert benchmark.lp.constraints_coo() is primed
