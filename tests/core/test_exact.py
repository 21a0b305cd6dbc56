"""Unit tests for the exact ILP solver and the approximation guarantee."""

import itertools

import numpy as np
import pytest

from repro.core import ExactILP, LPPacking, empirical_approximation_ratio, lp_upper_bound
from repro.core.exact import ExactSolveError
from repro.datagen import integrality_gap_instance
from repro.datagen.adversarial import INTEGRALITY_GAP_SEEDS
from repro.model import Arrangement, IGEPAInstance, MatrixConflict, TabulatedInterest
from repro.social import Graph
from tests.util import random_instance, tiny_instance


def _brute_force_optimum(instance) -> float:
    """Exhaustive search over all assignments (tiny instances only)."""
    # Materialized once: the product loop below reads every user per combo.
    users = list(instance.users)
    user_ids = [user.user_id for user in users]
    event_capacity = {event.event_id: event.capacity for event in instance.events}
    from repro.core import enumerate_admissible_sets

    options_per_user = []
    for user in users:
        sets = enumerate_admissible_sets(instance, user)
        options_per_user.append([()] + sets)
    best = 0.0
    for combo in itertools.product(*options_per_user):
        pairs = [
            (event_id, user_id)
            for user_id, events in zip(user_ids, combo)
            for event_id in events
        ]
        counts = {}
        for event_id, _ in pairs:
            counts[event_id] = counts.get(event_id, 0) + 1
        if any(
            count > event_capacity[event_id]
            for event_id, count in counts.items()
        ):
            continue
        utility = sum(instance.weight(u, v) for v, u in pairs)
        best = max(best, utility)
    return best


class TestExactness:
    def test_tiny_instance_optimum(self):
        instance = tiny_instance()
        exact = ExactILP().solve(instance)
        assert exact.arrangement.is_feasible()
        assert exact.utility == pytest.approx(_brute_force_optimum(instance))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_on_random_instances(self, seed):
        instance = random_instance(
            seed=seed, num_events=4, num_users=5, max_bids=3, max_user_capacity=2
        )
        exact = ExactILP().solve(instance)
        assert exact.utility == pytest.approx(_brute_force_optimum(instance))

    def test_exact_at_least_every_heuristic(self):
        from repro.core import GGGreedy, RandomU, RandomV

        instance = random_instance(seed=13, num_events=5, num_users=8)
        optimum = ExactILP().solve(instance).utility
        for algorithm in (GGGreedy(), RandomU(), RandomV(), LPPacking()):
            value = algorithm.solve(instance, seed=0).utility
            assert value <= optimum + 1e-7, algorithm.name

    @pytest.mark.parametrize("rank", [*range(len(INTEGRALITY_GAP_SEEDS)), None])
    def test_matches_brute_force_with_fractional_relaxation(self, rank):
        """The integrality-gap instances (LP optimum strictly above the ILP
        optimum, so a relaxed solve cannot pass for the integer one) and the
        fractional-root instance (rank None)."""
        if rank is None:
            instance = self._fractional_root_instance()
        else:
            instance = integrality_gap_instance(rank)
        exact = ExactILP().solve(instance)
        assert exact.utility == pytest.approx(_brute_force_optimum(instance))
        assert exact.details["gap"] == 0.0
        if rank is not None:
            assert exact.details["ilp_objective"] < lp_upper_bound(instance) - 1e-6

    def test_empty_instance(self):
        instance = IGEPAInstance(
            [], [], MatrixConflict([]), TabulatedInterest({}), Graph()
        )
        result = ExactILP().solve(instance)
        assert result.utility == 0.0

    @staticmethod
    def _fractional_root_instance():
        """An instance whose benchmark-LP root relaxation is fractional
        (seed found by a scripted search; most small random instances have
        integral roots)."""
        return random_instance(
            seed=90,
            num_events=5,
            num_users=8,
            max_event_capacity=2,
            max_user_capacity=3,
            conflict_probability=0.5,
            max_bids=5,
        )

    def test_non_optimal_solve_raises(self, monkeypatch):
        import repro.core.exact as module
        from repro.solver.result import LPSolution, SolveStatus

        def failing_solve(lp, backend="scipy"):
            return LPSolution(
                SolveStatus.ITERATION_LIMIT,
                backend="stub",
                diagnostics={"highs_message": "stub limit"},
            )

        monkeypatch.setattr(module, "solve_lp", failing_solve)
        with pytest.raises(ExactSolveError, match="iteration_limit: stub limit"):
            ExactILP().solve(tiny_instance())


class TestTheorem2:
    """E[LP-packing utility] >= 1/4 LP* at alpha = 1/2 (and comfortably more
    at alpha = 1 in practice)."""

    def test_quarter_bound_alpha_half(self):
        instance = random_instance(seed=21, num_events=5, num_users=10)
        report = empirical_approximation_ratio(
            instance,
            LPPacking(alpha=0.5),
            repetitions=200,
            seed=0,
            compute_exact=True,
        )
        # Theorem 2 guarantees >= 0.25 in expectation; with 200 reps the
        # sample mean should clear the bound with margin.
        assert report.ratio_vs_lp >= 0.25
        assert report.ratio_vs_exact >= 0.25
        assert report.lp_bound >= report.exact_optimum - 1e-7

    def test_alpha_one_ratio_is_higher_than_alpha_half(self):
        instance = random_instance(seed=22, num_events=5, num_users=10)
        half = empirical_approximation_ratio(
            instance, LPPacking(alpha=0.5), repetitions=100, seed=0
        )
        full = empirical_approximation_ratio(
            instance, LPPacking(alpha=1.0), repetitions=100, seed=0
        )
        assert full.ratio_vs_lp > half.ratio_vs_lp

    def test_report_fields(self):
        instance = random_instance(seed=23, num_events=4, num_users=6)
        report = empirical_approximation_ratio(
            instance, LPPacking(), repetitions=10, seed=0, compute_exact=True
        )
        assert report.algorithm == "lp-packing"
        assert len(report.utilities) == 10
        assert report.mean_utility == pytest.approx(np.mean(report.utilities))
        assert 0.0 <= report.ratio_vs_lp <= 1.0 + 1e-9

    def test_ratio_without_exact_is_none(self):
        instance = random_instance(seed=24, num_events=4, num_users=6)
        report = empirical_approximation_ratio(
            instance, LPPacking(), repetitions=5, seed=0
        )
        assert report.exact_optimum is None
        assert report.ratio_vs_exact is None


class TestLPUpperBound:
    def test_bound_on_empty_instance_is_zero(self):
        instance = IGEPAInstance(
            [], [], MatrixConflict([]), TabulatedInterest({}), Graph()
        )
        assert lp_upper_bound(instance) == 0.0

    def test_bound_dominates_any_feasible_arrangement(self):
        instance = tiny_instance()
        bound = lp_upper_bound(instance)
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (1, 11), (3, 12), (3, 13)])
        assert bound >= arrangement.utility() - 1e-9
