"""Unit tests for the LP-packing algorithm (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import LPPacking, build_benchmark_lp, lp_upper_bound
from repro.core.lp_packing import REPAIR_ORDERS, LPPackingError
from repro.model import Event, IGEPAInstance, MatrixConflict, TabulatedInterest, User
from repro.social import Graph
from tests.util import random_instance, tiny_instance


class TestConfiguration:
    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            LPPacking(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            LPPacking(alpha=1.2)

    def test_unknown_repair_order_rejected(self):
        with pytest.raises(ValueError, match="repair_order"):
            LPPacking(repair_order="sideways")

    def test_defaults_match_paper_empirical_setting(self):
        algorithm = LPPacking()
        assert algorithm.alpha == 1.0  # §IV: "We empirically set α = 1"
        assert algorithm.repair_order == "user"


class TestFeasibility:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_always_feasible(self, alpha, seed):
        instance = random_instance(seed=seed)
        result = LPPacking(alpha=alpha).solve(instance, seed=seed)
        assert result.arrangement.is_feasible()

    @pytest.mark.parametrize("repair_order", REPAIR_ORDERS)
    def test_feasible_for_all_repair_orders(self, repair_order):
        instance = random_instance(seed=3)
        result = LPPacking(repair_order=repair_order).solve(instance, seed=7)
        assert result.arrangement.is_feasible()

    def test_empty_instance(self):
        instance = IGEPAInstance(
            [], [], MatrixConflict([]), TabulatedInterest({}), Graph()
        )
        result = LPPacking().solve(instance)
        assert result.utility == 0.0
        assert result.num_pairs == 0

    def test_users_with_no_bids_are_skipped(self):
        events = [Event(event_id=1, capacity=1)]
        users = [
            User(user_id=1, capacity=1, bids=(1,)),
            User(user_id=2, capacity=1, bids=()),
        ]
        instance = IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest({(1, 1): 0.8}),
            Graph(nodes=[1, 2]),
        )
        result = LPPacking().solve(instance, seed=0)
        assert result.arrangement.is_feasible()
        assert all(user_id != 2 for _, user_id in result.pairs)


class TestDeterminism:
    def test_same_seed_same_result(self):
        instance = random_instance(seed=1)
        algorithm = LPPacking()
        first = algorithm.solve(instance, seed=42)
        second = algorithm.solve(instance, seed=42)
        assert first.pairs == second.pairs
        assert first.utility == pytest.approx(second.utility)

    def test_different_seeds_can_differ(self):
        instance = random_instance(seed=1, num_users=20, num_events=8)
        algorithm = LPPacking(alpha=0.5)
        results = {
            frozenset(algorithm.solve(instance, seed=s).pairs) for s in range(10)
        }
        assert len(results) > 1  # sampling actually randomizes

    def test_constructor_seed_used_when_no_override(self):
        instance = random_instance(seed=1)
        first = LPPacking(seed=5).solve(instance)
        second = LPPacking(seed=5).solve(instance)
        assert first.pairs == second.pairs


class TestSampling:
    def test_sampling_probabilities_respected(self):
        """With a single user and one set at x* = 1, α scales the take rate."""
        events = [Event(event_id=1, capacity=1)]
        users = [User(user_id=1, capacity=1, bids=(1,))]
        instance = IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest({(1, 1): 1.0}),
            Graph(nodes=[1]),
        )
        algorithm = LPPacking(alpha=0.5)
        taken = sum(
            1 for s in range(400) if algorithm.solve(instance, seed=s).num_pairs
        )
        # Binomial(400, 0.5): mean 200, std 10 -> 5 sigma band.
        assert 150 <= taken <= 250

    def test_alpha_one_with_integral_lp_keeps_everything(self):
        """When the LP optimum is integral and capacities are loose, α = 1
        reproduces the LP solution exactly."""
        events = [Event(event_id=i, capacity=5) for i in (1, 2)]
        users = [
            User(user_id=1, capacity=1, bids=(1,)),
            User(user_id=2, capacity=1, bids=(2,)),
        ]
        instance = IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest({(1, 1): 0.9, (2, 2): 0.8}),
            Graph(nodes=[1, 2]),
        )
        result = LPPacking(alpha=1.0).solve(instance, seed=0)
        assert result.pairs == {(1, 1), (2, 2)}
        assert result.utility == pytest.approx(lp_upper_bound(instance))

    def test_sample_sets_handles_probability_overflow(self):
        """Solver noise pushing Σ α·x* above 1 must rescale, not crash."""
        instance = tiny_instance()
        benchmark = build_benchmark_lp(instance)
        algorithm = LPPacking(alpha=1.0)
        x = np.zeros(benchmark.lp.num_variables)
        indices = benchmark.by_user[11]
        x[indices] = (1.0 + 1e-9) / len(indices)  # sums to slightly above 1
        sampled = algorithm.sample_sets(benchmark, x, np.random.default_rng(0))
        assert set(sampled) <= {11}


class TestRepair:
    def _crowded_instance(self):
        """Three users all bidding the same capacity-1 event."""
        events = [Event(event_id=1, capacity=1)]
        users = [User(user_id=u, capacity=1, bids=(1,)) for u in (1, 2, 3)]
        return IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest({(1, 1): 0.9, (1, 2): 0.5, (1, 3): 0.1}),
            Graph(nodes=[1, 2, 3]),
        )

    def test_repair_enforces_event_capacity(self):
        instance = self._crowded_instance()
        algorithm = LPPacking(alpha=1.0)
        sampled = {1: (1,), 2: (1,), 3: (1,)}
        survivors = algorithm.repair(instance, sampled, np.random.default_rng(0))
        assert len(survivors) == 1

    def test_user_order_repair_keeps_first_user(self):
        instance = self._crowded_instance()
        algorithm = LPPacking(repair_order="user")
        survivors = algorithm.repair(
            instance, {2: (1,), 1: (1,), 3: (1,)}, np.random.default_rng(0)
        )
        assert survivors == [(1, 1)]  # instance user order: 1, 2, 3

    def test_weight_order_repair_keeps_heaviest(self):
        instance = self._crowded_instance()
        algorithm = LPPacking(repair_order="weight")
        survivors = algorithm.repair(
            instance, {3: (1,), 2: (1,), 1: (1,)}, np.random.default_rng(0)
        )
        assert survivors == [(1, 1)]  # user 1 has interest 0.9

    def test_random_order_repair_varies(self):
        instance = self._crowded_instance()
        algorithm = LPPacking(repair_order="random")
        sampled = {1: (1,), 2: (1,), 3: (1,)}
        kept = {
            algorithm.repair(instance, sampled, np.random.default_rng(s))[0][1]
            for s in range(30)
        }
        assert len(kept) > 1

    def test_repair_no_violations_is_identity(self):
        instance = tiny_instance()
        algorithm = LPPacking()
        sampled = {11: (1, 3), 13: (3,)}
        survivors = algorithm.repair(instance, sampled, np.random.default_rng(0))
        assert sorted(survivors) == [(1, 11), (3, 11), (3, 13)]


class TestLPCache:
    def test_cache_hit_on_same_instance(self):
        instance = random_instance(seed=1)
        algorithm = LPPacking()
        algorithm.solve(instance, seed=0)
        second = algorithm.solve(instance, seed=1)
        assert second.details["lp_backend"] == "cache"

    def test_cache_disabled(self):
        instance = random_instance(seed=1)
        algorithm = LPPacking(cache_lp=False)
        algorithm.solve(instance, seed=0)
        second = algorithm.solve(instance, seed=1)
        assert second.details["lp_backend"] != "cache"

    def test_no_stale_hit_after_instance_is_garbage_collected(self):
        """Regression: CPython reuses the ids of collected objects, so an
        id()-keyed cache can serve instance B the LP solution of a dead
        instance A.  The weak-keyed cache must never do that — repeated
        fresh-instance runs must match fresh-algorithm runs exactly."""
        import gc

        algorithm = LPPacking()
        cached_utilities = []
        for seed in range(6):
            instance = random_instance(seed=seed, num_users=20, num_events=8)
            cached_utilities.append(algorithm.solve(instance, seed=0).utility)
            del instance
            gc.collect()
        fresh_utilities = [
            LPPacking().solve(
                random_instance(seed=seed, num_users=20, num_events=8), seed=0
            ).utility
            for seed in range(6)
        ]
        assert cached_utilities == pytest.approx(fresh_utilities)

    def test_cache_entry_released_with_instance(self):
        import gc

        algorithm = LPPacking()
        instance = random_instance(seed=2)
        algorithm.solve(instance, seed=0)
        assert len(algorithm._lp_cache) == 1
        del instance
        gc.collect()
        assert len(algorithm._lp_cache) == 0


class TestDiagnostics:
    def test_details_fields(self):
        instance = random_instance(seed=2)
        result = LPPacking().solve(instance, seed=0)
        details = result.details
        assert details["lp_objective"] >= result.utility - 1e-9
        assert details["num_variables"] > 0
        assert details["num_sampled_pairs"] >= details["num_surviving_pairs"]
        assert details["num_surviving_pairs"] == result.num_pairs
        assert details["alpha"] == 1.0
        assert details["lp_backend"]

    def test_unsolvable_backend_raises_lp_packing_error(self):
        instance = random_instance(seed=2, num_users=30, num_events=10)
        algorithm = LPPacking()

        # Force an iteration-limit failure by monkeypatching options through
        # a tiny backend wrapper.
        import repro.core.lp_packing as module

        original = module.solve_lp

        def failing_solve(lp, backend="auto", **kwargs):
            from repro.solver.result import LPSolution, SolveStatus

            return LPSolution(SolveStatus.ITERATION_LIMIT, backend="stub")

        module.solve_lp = failing_solve
        try:
            with pytest.raises(LPPackingError, match="iteration_limit"):
                algorithm.solve(instance, seed=0)
        finally:
            module.solve_lp = original


    def test_highs_numerical_failure_names_linprog_status(self, monkeypatch):
        import scipy.optimize

        def failing_linprog(*args, **kwargs):
            return scipy.optimize.OptimizeResult(
                status=4, success=False, message="Numerical difficulties", nit=3
            )

        monkeypatch.setattr(scipy.optimize, "linprog", failing_linprog)
        algorithm = LPPacking()
        with pytest.raises(LPPackingError) as caught:
            algorithm.solve(random_instance(seed=2, num_users=30, num_events=10), seed=0)
        message = str(caught.value)
        assert "status error" in message
        assert "linprog_status=4" in message
        assert "Numerical difficulties" in message


class TestQuality:
    """LP-packing with α = 1 should beat or match the random baselines."""

    def test_utility_never_exceeds_lp_bound(self):
        for seed in range(5):
            instance = random_instance(seed=seed)
            result = LPPacking().solve(instance, seed=seed)
            assert result.utility <= lp_upper_bound(instance) + 1e-7

    def test_mean_utility_beats_random_baselines(self):
        from repro.core import RandomU, RandomV

        instance = random_instance(seed=9, num_users=25, num_events=8)
        reps = 30
        lp_mean = np.mean(
            [LPPacking().solve(instance, seed=s).utility for s in range(reps)]
        )
        ru_mean = np.mean(
            [RandomU().solve(instance, seed=s).utility for s in range(reps)]
        )
        rv_mean = np.mean(
            [RandomV().solve(instance, seed=s).utility for s in range(reps)]
        )
        assert lp_mean >= ru_mean * 0.95
        assert lp_mean >= rv_mean * 0.95
