"""Unit tests for arrangement quality metrics."""

import pytest

from repro.core import (
    GGGreedy,
    event_fill_rates,
    interaction_lift,
    jain_fairness,
    mean_fill_rate,
    summarize,
    user_coverage,
    user_utilities,
)
from repro.core.metrics import event_social_cohesion
from repro.datagen import SyntheticConfig, generate_synthetic
from repro.model import Arrangement, Event, IGEPAInstance, MatrixConflict, TabulatedInterest, User
from repro.social import Graph
from tests.util import tiny_instance


@pytest.fixture
def instance():
    return tiny_instance()


class TestFillRates:
    def test_per_event_rates(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (1, 11)])
        rates = event_fill_rates(instance, arrangement)
        assert rates[1] == pytest.approx(1.0)  # capacity 2, two attendees
        assert rates[2] == 0.0
        assert rates[3] == 0.0

    def test_mean_fill_rate(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (3, 13)])
        # rates: event1 1/2, event2 0/1, event3 1/2 -> mean 1/3.
        assert mean_fill_rate(instance, arrangement) == pytest.approx(1 / 3)

    def test_zero_capacity_event_rate_is_zero(self):
        events = [Event(event_id=1, capacity=0)]
        users = [User(user_id=1, capacity=1)]
        inst = IGEPAInstance(
            events, users, MatrixConflict([]), TabulatedInterest({}), Graph(nodes=[1])
        )
        arrangement = Arrangement(inst)
        assert event_fill_rates(inst, arrangement)[1] == 0.0
        assert mean_fill_rate(inst, arrangement) == 0.0

    def test_empty_instance_mean_rate(self):
        inst = IGEPAInstance([], [], MatrixConflict([]), TabulatedInterest({}), Graph())
        assert mean_fill_rate(inst, Arrangement(inst)) == 0.0


class TestCoverageAndUtilities:
    def test_user_coverage(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (3, 11)])
        assert user_coverage(instance, arrangement) == pytest.approx(0.5)

    def test_coverage_empty_instance(self):
        inst = IGEPAInstance([], [], MatrixConflict([]), TabulatedInterest({}), Graph())
        assert user_coverage(inst, Arrangement(inst)) == 0.0

    def test_user_utilities_sum_to_total(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (3, 11), (3, 12)])
        per_user = user_utilities(instance, arrangement)
        assert sum(per_user.values()) == pytest.approx(arrangement.utility())
        assert per_user[13] == 0.0

    @pytest.mark.parametrize("sharded", [None, True])
    def test_user_utilities_match_scalar_weights(self, sharded):
        """Per user, the sum of ``weight_at`` over the user's events in
        ascending event position, bit for bit, on the index picked by size
        (dense) and on the CSR index."""
        instance = generate_synthetic(
            SyntheticConfig(num_users=60, num_events=70, max_user_capacity=4), seed=4
        )
        if sharded is not None:
            instance.configure_index(sharded=sharded)
        arrangement = GGGreedy().solve(instance, seed=0).arrangement
        index = instance.index
        per_user = user_utilities(instance, arrangement)
        assert list(per_user) == index.user_ids.tolist()
        for upos, user_id in enumerate(index.user_ids.tolist()):
            expected = 0.0
            for vpos, event_id in enumerate(index.event_ids.tolist()):
                if (event_id, user_id) in arrangement:
                    expected += index.weight_at(upos, vpos)
            assert type(per_user[user_id]) is float
            assert per_user[user_id] == expected
        assert (arrangement.load_counts >= 2).any()


class TestFairness:
    def test_equal_split_is_one(self, instance):
        # Two users with identical weight contributions.
        events = [Event(event_id=1, capacity=2)]
        users = [
            User(user_id=1, capacity=1, bids=(1,)),
            User(user_id=2, capacity=1, bids=(1,)),
        ]
        inst = IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest({(1, 1): 0.5, (1, 2): 0.5}),
            Graph(nodes=[1, 2]),
        )
        arrangement = Arrangement.from_pairs(inst, [(1, 1), (1, 2)])
        assert jain_fairness(inst, arrangement) == pytest.approx(1.0)

    def test_winner_take_all_approaches_reciprocal(self):
        events = [Event(event_id=1, capacity=1)]
        users = [
            User(user_id=1, capacity=1, bids=(1,)),
            User(user_id=2, capacity=1, bids=(1,)),
        ]
        inst = IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest({(1, 1): 0.9, (1, 2): 0.9}),
            Graph(nodes=[1, 2]),
        )
        arrangement = Arrangement.from_pairs(inst, [(1, 1)])
        assert jain_fairness(inst, arrangement) == pytest.approx(0.5)

    def test_empty_arrangement_is_fair(self, instance):
        assert jain_fairness(instance, Arrangement(instance)) == 1.0

    def test_users_without_bids_excluded(self):
        events = [Event(event_id=1, capacity=1)]
        users = [
            User(user_id=1, capacity=1, bids=(1,)),
            User(user_id=2, capacity=1, bids=()),  # cannot ever receive
        ]
        inst = IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest({(1, 1): 0.9}),
            Graph(nodes=[1, 2]),
        )
        arrangement = Arrangement.from_pairs(inst, [(1, 1)])
        assert jain_fairness(inst, arrangement) == pytest.approx(1.0)


class TestSocialMetrics:
    def test_cohesion_of_friend_pair(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (1, 11)])
        # 10 and 11 are friends -> cohesion 1.0 at event 1.
        assert event_social_cohesion(instance, arrangement, 1) == 1.0

    def test_cohesion_of_strangers(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(3, 12), (3, 13)])
        assert event_social_cohesion(instance, arrangement, 3) == 0.0

    def test_cohesion_single_attendee_is_zero(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(1, 10)])
        assert event_social_cohesion(instance, arrangement, 1) == 0.0

    def test_cohesion_rejects_degree_override_instances(self):
        inst = generate_synthetic(
            SyntheticConfig(num_events=5, num_users=10), seed=0
        )
        arrangement = Arrangement(inst)
        with pytest.raises(ValueError, match="degree overrides"):
            event_social_cohesion(inst, arrangement, 0)

    def test_interaction_lift_prefers_social_users(self, instance):
        # Assign only the most social user (11, degree 2/3).
        arrangement = Arrangement.from_pairs(instance, [(1, 11)])
        assert interaction_lift(instance, arrangement) > 1.0

    def test_interaction_lift_empty_is_one(self, instance):
        assert interaction_lift(instance, Arrangement(instance)) == 1.0


class TestSummarize:
    def test_all_fields_present_and_consistent(self, instance):
        result = GGGreedy().solve(instance)
        summary = summarize(instance, result.arrangement)
        assert summary["utility"] == pytest.approx(result.utility)
        assert summary["pairs"] == result.num_pairs
        assert 0.0 <= summary["user_coverage"] <= 1.0
        assert 0.0 <= summary["jain_fairness"] <= 1.0
        assert summary["mean_fill_rate"] >= 0.0
        assert summary["interaction_lift"] > 0.0
        assert summary["utility"] == pytest.approx(
            instance.beta * summary["interest_total"]
            + (1 - instance.beta) * summary["interaction_total"]
        )
