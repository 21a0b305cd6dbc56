"""Unit tests for the online IGEPA extension."""

import pytest

from repro.core import (
    ExactILP,
    OnlineGreedy,
    OnlineRandom,
    competitive_ratio,
    lp_upper_bound,
)
from repro.model import Event, IGEPAInstance, MatrixConflict, TabulatedInterest, User
from repro.social import Graph
from tests.util import random_instance, tiny_instance


class TestFeasibility:
    @pytest.mark.parametrize("algorithm_class", [OnlineGreedy, OnlineRandom])
    @pytest.mark.parametrize("seed", range(4))
    def test_always_feasible(self, algorithm_class, seed):
        instance = random_instance(seed=seed)
        result = algorithm_class().solve(instance, seed=seed)
        assert result.arrangement.is_feasible()

    @pytest.mark.parametrize("algorithm_class", [OnlineGreedy, OnlineRandom])
    def test_serves_every_arrival(self, algorithm_class):
        instance = tiny_instance()
        result = algorithm_class().solve(instance, seed=0)
        assert result.details["arrivals"] == instance.num_users


class TestArrivalOrder:
    def test_fixed_order_is_deterministic_for_greedy(self):
        instance = tiny_instance()
        order = [13, 12, 11, 10]
        first = OnlineGreedy(arrival_order=order).solve(instance, seed=0)
        second = OnlineGreedy(arrival_order=order).solve(instance, seed=99)
        assert first.pairs == second.pairs

    def test_unknown_user_in_order_rejected(self):
        instance = tiny_instance()
        with pytest.raises(ValueError, match="unknown users"):
            OnlineGreedy(arrival_order=[10, 999]).solve(instance, seed=0)

    def test_order_matters_for_greedy(self):
        """With one seat and two bidders, the first arrival takes it."""
        events = [Event(event_id=1, capacity=1)]
        users = [
            User(user_id=1, capacity=1, bids=(1,)),
            User(user_id=2, capacity=1, bids=(1,)),
        ]
        instance = IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest({(1, 1): 0.5, (1, 2): 0.9}),
            Graph(nodes=[1, 2]),
        )
        first_wins = OnlineGreedy(arrival_order=[1, 2]).solve(instance)
        second_wins = OnlineGreedy(arrival_order=[2, 1]).solve(instance)
        assert first_wins.pairs == {(1, 1)}
        assert second_wins.pairs == {(1, 2)}

    def test_random_order_varies(self):
        instance = random_instance(seed=2, num_users=15, num_events=6)
        outcomes = {
            frozenset(OnlineGreedy().solve(instance, seed=s).pairs)
            for s in range(10)
        }
        assert len(outcomes) > 1


class TestGreedyChoice:
    def test_takes_heaviest_feasible_set(self):
        instance = tiny_instance()
        # User 11 bids (1, 3) with weights w(11,1), w(11,3); capacity 2 and
        # no conflict -> the greedy takes both on arrival.
        result = OnlineGreedy(arrival_order=[11, 10, 12, 13]).solve(instance)
        assert {(1, 11), (3, 11)} <= result.pairs

    def test_respects_remaining_capacity(self):
        events = [Event(event_id=1, capacity=1), Event(event_id=2, capacity=5)]
        users = [
            User(user_id=1, capacity=1, bids=(1,)),
            User(user_id=2, capacity=1, bids=(1, 2)),
        ]
        instance = IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest({(1, 1): 0.9, (1, 2): 0.9, (2, 2): 0.3}),
            Graph(nodes=[1, 2]),
        )
        result = OnlineGreedy(arrival_order=[1, 2]).solve(instance)
        # User 1 takes the single seat of event 1; user 2 falls back to 2.
        assert result.pairs == {(1, 1), (2, 2)}


class TestOnlineVsOffline:
    def test_online_cannot_beat_offline_bound(self):
        instance = random_instance(seed=5)
        bound = lp_upper_bound(instance)
        for algorithm in (OnlineGreedy(), OnlineRandom()):
            result = algorithm.solve(instance, seed=0)
            assert result.utility <= bound + 1e-7

    def test_greedy_beats_random_on_average(self):
        import numpy as np

        instance = random_instance(seed=6, num_users=30, num_events=10)
        greedy = np.mean(
            [OnlineGreedy().solve(instance, seed=s).utility for s in range(10)]
        )
        random_baseline = np.mean(
            [OnlineRandom().solve(instance, seed=s).utility for s in range(10)]
        )
        assert greedy >= random_baseline

    def test_competitive_ratio_report(self):
        instance = random_instance(seed=7, num_events=5, num_users=10)
        report = competitive_ratio(instance, OnlineGreedy(), repetitions=10, seed=0)
        assert 0.0 <= report["worst_ratio"] <= report["mean_ratio"] <= 1.0 + 1e-9
        assert report["offline_bound"] >= report["mean_utility"] - 1e-9
        optimum = ExactILP().solve(instance).utility
        assert report["offline_bound"] >= optimum - 1e-7


class TestCompetitiveRatioBounds:
    """Regression tests for tolerance overshoot and the zero-bound case.

    The old implementation reported ratios above 1.0 when the LP bound was
    tight to solver tolerance, and returned a perfect 1.0 whenever the
    bound was 0 — even if the online algorithm earned positive utility
    (i.e. the "bound" was infeasible).
    """

    @staticmethod
    def _patch_bound(monkeypatch, value):
        import repro.core.online as online_module

        monkeypatch.setattr(online_module, "lp_upper_bound", lambda _: value)

    def test_per_run_ratios_in_payload(self):
        instance = random_instance(seed=7, num_events=5, num_users=10)
        report = competitive_ratio(instance, OnlineGreedy(), repetitions=5, seed=0)
        assert len(report["ratios"]) == 5
        assert len(report["utilities"]) == 5
        for ratio, utility in zip(report["ratios"], report["utilities"]):
            assert ratio == pytest.approx(
                min(utility / report["offline_bound"], 1.0)
            )
        assert report["zero_bound"] is False
        assert report["clamped_runs"] == 0

    def test_tolerance_overshoot_is_clamped_and_flagged(self, monkeypatch):
        instance = tiny_instance()
        true_utility = OnlineGreedy().solve(instance, seed=0).utility
        # A bound one part in 10^8 below the achieved utility: within the
        # solver tolerance, so ratios clamp to 1.0 instead of exceeding it.
        self._patch_bound(monkeypatch, true_utility * (1.0 - 1e-8))
        report = competitive_ratio(instance, OnlineGreedy(), repetitions=3, seed=0)
        assert report["mean_ratio"] <= 1.0
        assert report["worst_ratio"] <= 1.0
        assert all(ratio <= 1.0 for ratio in report["ratios"])
        assert report["max_raw_ratio"] > 1.0
        assert report["clamped_runs"] >= 1

    def test_overshoot_beyond_tolerance_raises(self, monkeypatch):
        instance = tiny_instance()
        true_utility = OnlineGreedy().solve(instance, seed=0).utility
        self._patch_bound(monkeypatch, true_utility * 0.5)
        with pytest.raises(RuntimeError, match="not an upper bound"):
            competitive_ratio(instance, OnlineGreedy(), repetitions=3, seed=0)

    def test_zero_bound_with_positive_utility_raises(self, monkeypatch):
        """The old code returned mean_ratio == 1.0 here, silently declaring
        an infeasible bound a perfect score."""
        instance = tiny_instance()
        self._patch_bound(monkeypatch, 0.0)
        with pytest.raises(RuntimeError, match="not an upper bound"):
            competitive_ratio(instance, OnlineGreedy(), repetitions=3, seed=0)

    def test_zero_bound_with_zero_utility_is_vacuous(self):
        """No bids -> no assignments and a 0 bound: flagged, ratio 1.0."""
        instance = IGEPAInstance(
            events=[Event(event_id=1, capacity=2)],
            users=[User(user_id=10, capacity=1, bids=())],
            conflict=MatrixConflict([]),
            interest=TabulatedInterest({}),
            social=Graph(nodes=[10]),
        )
        report = competitive_ratio(instance, OnlineGreedy(), repetitions=3, seed=0)
        assert report["zero_bound"] is True
        assert report["mean_ratio"] == 1.0
        assert report["ratios"] == [1.0, 1.0, 1.0]
        assert report["offline_bound"] == 0.0

    def test_negative_bound_raises_even_with_zero_utility(self, monkeypatch):
        """A negative 'bound' cannot bound anything — it must not be
        reported as the vacuous zero-bound case."""
        instance = IGEPAInstance(
            events=[Event(event_id=1, capacity=2)],
            users=[User(user_id=10, capacity=1, bids=())],
            conflict=MatrixConflict([]),
            interest=TabulatedInterest({}),
            social=Graph(nodes=[10]),
        )
        self._patch_bound(monkeypatch, -1e-3)
        with pytest.raises(RuntimeError, match="not an upper bound"):
            competitive_ratio(instance, OnlineGreedy(), repetitions=2, seed=0)


class TestServeHook:
    """The incremental serving hook behind the dynamic-platform simulator."""

    @pytest.mark.parametrize("algorithm_class", [OnlineGreedy, OnlineRandom])
    def test_serve_matches_arrival_loop(self, algorithm_class):
        """Serving users one by one through the hook reproduces the solve
        loop under the same fixed arrival order."""
        import numpy as np

        from repro.model import Arrangement

        instance = random_instance(seed=2)
        order = [user.user_id for user in instance.users]
        solved = algorithm_class(arrival_order=order).solve(instance, seed=0)
        arrangement = Arrangement(instance)
        rng = np.random.default_rng(0)
        for user_id in order:
            algorithm_class().serve(instance, arrangement, user_id, rng)
        assert arrangement.pairs == solved.arrangement.pairs

    def test_serve_returns_assigned_events_and_stays_feasible(self):
        instance = tiny_instance()
        from repro.model import Arrangement

        arrangement = Arrangement(instance)
        assigned = OnlineGreedy().serve(instance, arrangement, 11)
        assert assigned == sorted(arrangement.events_of(11))
        assert assigned  # user 11 has room and open events
        assert arrangement.is_feasible()

    def test_serve_respects_remaining_capacity(self):
        """A full event cannot be assigned to a later arrival."""
        instance = tiny_instance()
        from repro.model import Arrangement

        arrangement = Arrangement(instance)
        arrangement.add(2, 12)  # event 2 has capacity 1
        assigned = OnlineGreedy().serve(instance, arrangement, 10)
        assert 2 not in assigned
        assert arrangement.is_feasible()

    def test_serve_unknown_user_rejected(self):
        instance = tiny_instance()
        from repro.model import Arrangement

        with pytest.raises(ValueError, match="unknown user"):
            OnlineGreedy().serve(instance, Arrangement(instance), 999)

    def test_serve_foreign_arrangement_rejected(self):
        from repro.model import Arrangement

        instance = tiny_instance()
        other = tiny_instance()
        with pytest.raises(ValueError, match="different instance"):
            OnlineGreedy().serve(instance, Arrangement(other), 10)


class TestPreparedArrivals:
    """A full solve or serving tick enumerates its arrivals in one batch."""

    def test_prepared_sets_stay_with_their_instance(self):
        """Sets prepared on one instance are never served on another."""
        import numpy as np

        from repro.model import Arrangement

        first, second = random_instance(seed=2), random_instance(seed=3)
        shared = [u.user_id for u in second.users if u.user_id in first.user_by_id]
        assert shared
        prepared = OnlineGreedy()
        prepared.prepare(first, [u.user_id for u in first.users])
        fresh = OnlineGreedy()
        ours, theirs = Arrangement(second), Arrangement(second)
        for user_id in shared:
            prepared.serve(second, ours, user_id, np.random.default_rng(0))
            fresh.serve(second, theirs, user_id, np.random.default_rng(0))
        assert ours.pairs == theirs.pairs

    def test_explosion_names_the_first_arrival(self):
        from repro.core import AdmissibleSetExplosion

        events = [Event(event_id=e, capacity=2) for e in range(5)]
        users = [User(user_id=u, capacity=5, bids=(0, 1, 2, 3, 4)) for u in (1, 2)]
        instance = IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest({}, default=0.5),
            Graph(nodes=[1, 2]),
        )
        for order in ([2, 1], [1, 2]):
            algorithm = OnlineGreedy(arrival_order=order, max_sets_per_user=10)
            with pytest.raises(AdmissibleSetExplosion) as error:
                algorithm.solve(instance, seed=0)
            assert error.value.user_id == order[0]
