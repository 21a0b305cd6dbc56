"""Unit tests for IGEPAInstance."""

import numpy as np
import pytest

from repro.model import (
    Event,
    IGEPAInstance,
    InstanceValidationError,
    MatrixConflict,
    NoConflict,
    TabulatedInterest,
    User,
)
from repro.social import Graph
from tests.util import tiny_instance


class TestValidation:
    def test_valid_instance_constructs(self):
        instance = tiny_instance()
        assert instance.num_events == 3
        assert instance.num_users == 4

    def test_duplicate_event_ids_rejected(self):
        events = [Event(event_id=1, capacity=1), Event(event_id=1, capacity=2)]
        with pytest.raises(InstanceValidationError, match="duplicate event"):
            IGEPAInstance(events, [], NoConflict(), TabulatedInterest({}), Graph())

    def test_duplicate_user_ids_rejected(self):
        users = [User(user_id=1, capacity=1), User(user_id=1, capacity=2)]
        with pytest.raises(InstanceValidationError, match="duplicate user"):
            IGEPAInstance([], users, NoConflict(), TabulatedInterest({}), Graph())

    def test_dangling_bid_rejected(self):
        events = [Event(event_id=1, capacity=1)]
        users = [User(user_id=1, capacity=1, bids=(1, 99))]
        with pytest.raises(InstanceValidationError, match="unknown events"):
            IGEPAInstance(
                events, users, NoConflict(), TabulatedInterest({}), Graph(nodes=[1])
            )

    def test_invalid_beta_rejected(self):
        with pytest.raises(InstanceValidationError, match="beta"):
            IGEPAInstance(
                [], [], NoConflict(), TabulatedInterest({}), Graph(), beta=1.5
            )

    def test_social_graph_with_alien_nodes_rejected(self):
        users = [User(user_id=1, capacity=1)]
        graph = Graph(nodes=[1, 2])
        with pytest.raises(InstanceValidationError, match="non-user"):
            IGEPAInstance([], users, NoConflict(), TabulatedInterest({}), graph)


    def test_degree_overrides_for_non_users_rejected(self):
        users = [User(user_id=1, capacity=1)]
        with pytest.raises(InstanceValidationError, match="non-users \\[7\\]"):
            IGEPAInstance(
                [], users, NoConflict(), TabulatedInterest({}), Graph(nodes=[1]),
                degrees={1: 0.5, 7: 0.5},
            )

    def test_degree_overrides_outside_unit_interval_rejected(self):
        users = [User(user_id=1, capacity=1)]
        with pytest.raises(InstanceValidationError, match="outside \\[0, 1\\]"):
            IGEPAInstance(
                [], users, NoConflict(), TabulatedInterest({}), Graph(nodes=[1]),
                degrees={1: 1.5},
            )


class TestDerivedQuantities:
    def test_degree_normalization(self):
        instance = tiny_instance()
        # 4 users: D = deg / 3.
        assert instance.degree(10) == pytest.approx(1 / 3)
        assert instance.degree(11) == pytest.approx(2 / 3)
        assert instance.degree(13) == 0.0

    def test_degree_of_user_missing_from_graph_is_zero(self):
        events = [Event(event_id=1, capacity=1)]
        users = [User(user_id=1, capacity=1), User(user_id=2, capacity=1)]
        instance = IGEPAInstance(
            events, users, NoConflict(), TabulatedInterest({}), Graph(nodes=[1])
        )
        assert instance.degree(2) == 0.0

    def test_degree_single_user_is_zero(self):
        users = [User(user_id=1, capacity=1)]
        instance = IGEPAInstance(
            [], users, NoConflict(), TabulatedInterest({}), Graph(nodes=[1])
        )
        assert instance.degree(1) == 0.0

    def test_degree_unknown_user_raises(self):
        with pytest.raises(KeyError):
            tiny_instance().degree(999)

    def test_interest_lookup(self):
        instance = tiny_instance()
        assert instance.interest_of(1, 10) == pytest.approx(0.9)
        assert instance.interest_of(3, 13) == pytest.approx(1.0)

    def test_interest_out_of_range_rejected(self):
        class Bad(TabulatedInterest):
            def interest(self, event, user):
                return 2.0

        events = [Event(event_id=1, capacity=1)]
        users = [User(user_id=1, capacity=1, bids=(1,))]
        # The constructor fills the store's SI column, so it rejects.
        with pytest.raises(InstanceValidationError, match="Definition 5"):
            IGEPAInstance(events, users, NoConflict(), Bad({}), Graph(nodes=[1]))

    def test_weight_formula(self):
        instance = tiny_instance(beta=0.5)
        expected = 0.5 * 0.9 + 0.5 * (1 / 3)
        assert instance.weight(10, 1) == pytest.approx(expected)

    def test_weight_beta_extremes(self):
        pure_interest = tiny_instance(beta=1.0)
        assert pure_interest.weight(10, 1) == pytest.approx(0.9)
        pure_interaction = tiny_instance(beta=0.0)
        assert pure_interaction.weight(10, 1) == pytest.approx(1 / 3)

    def test_conflicts_lookup_and_symmetry(self):
        instance = tiny_instance()
        assert instance.conflicts(1, 2)
        assert instance.conflicts(2, 1)
        assert not instance.conflicts(1, 3)
        assert not instance.conflicts(1, 1)

    def test_functions_are_read_only(self):
        """σ and SI are packed into the store on construction, so
        replacing them afterwards would leave the index on the old ones."""
        instance = tiny_instance()
        with pytest.raises(AttributeError):
            instance.conflict = NoConflict()
        with pytest.raises(AttributeError):
            instance.interest = TabulatedInterest({})
        assert instance.conflicts(1, 2)

    def test_bidders(self):
        instance = tiny_instance()
        assert sorted(instance.bidders(1)) == [10, 11]
        assert sorted(instance.bidders(3)) == [11, 12, 13]

    def test_bidders_unknown_event_raises(self):
        with pytest.raises(KeyError):
            tiny_instance().bidders(99)

    def test_bid_conflict_edges(self):
        instance = tiny_instance()
        user10 = instance.user_by_id[10]  # bids (1, 2) which conflict
        assert instance.bid_conflict_edges(user10) == [(1, 2)]
        user11 = instance.user_by_id[11]  # bids (1, 3): no conflict
        assert instance.bid_conflict_edges(user11) == []


class TestStatistics:
    def test_statistics_fields(self):
        stats = tiny_instance().statistics()
        assert stats["num_events"] == 3
        assert stats["num_users"] == 4
        assert stats["total_bids"] == 7
        assert stats["mean_bids_per_user"] == pytest.approx(7 / 4)
        assert stats["conflict_density"] == pytest.approx(1 / 3)
        assert stats["social_edges"] == 2
        assert stats["beta"] == 0.5

    def test_statistics_empty_instance(self):
        instance = IGEPAInstance(
            [], [], NoConflict(), TabulatedInterest({}), Graph()
        )
        stats = instance.statistics()
        assert stats["num_events"] == 0
        assert stats["mean_bids_per_user"] == 0.0
        assert stats["conflict_density"] == 0.0


class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        instance = tiny_instance()
        path = tmp_path / "instance.json"
        instance.save(path)
        restored = IGEPAInstance.load(path)
        assert restored.num_events == instance.num_events
        assert restored.num_users == instance.num_users
        assert restored.beta == instance.beta
        for event in instance.events:
            other = restored.event_by_id[event.event_id]
            assert other == event
        for user in instance.users:
            other = restored.user_by_id[user.user_id]
            assert other == user
        assert restored.conflicts(1, 2)
        assert not restored.conflicts(1, 3)
        assert restored.interest_of(1, 10) == pytest.approx(0.9)
        assert restored.degree(11) == pytest.approx(instance.degree(11))

    def test_round_trip_with_temporal_events(self, tmp_path):
        events = [
            Event(event_id=1, capacity=2, start_time=0.0, duration=2.0),
            Event(event_id=2, capacity=2, start_time=1.0, duration=2.0),
        ]
        users = [User(user_id=1, capacity=2, bids=(1, 2))]
        from repro.model import TimeIntervalConflict

        instance = IGEPAInstance(
            events,
            users,
            TimeIntervalConflict(),
            TabulatedInterest({(1, 1): 0.5, (2, 1): 0.6}),
            Graph(nodes=[1]),
        )
        path = tmp_path / "temporal.json"
        instance.save(path)
        restored = IGEPAInstance.load(path)
        assert restored.conflicts(1, 2)
        assert restored.event_by_id[1].end_time == pytest.approx(2.0)

    def test_round_trip_with_partial_degree_overrides(self):
        # Overrides for two of four users: the rest read 0.0, and to_dict
        # writes the full column, which loads back to the same bits.
        base = tiny_instance()
        instance = IGEPAInstance(
            list(base.events),
            list(base.users),
            base.conflict,
            base.interest,
            base.social,
            beta=base.beta,
            degrees={10: 0.5, 12: 0.25},
        )
        assert instance.degrees_override == {10: 0.5, 11: 0.0, 12: 0.25, 13: 0.0}
        assert instance.degree(11) == 0.0
        restored = IGEPAInstance.from_dict(instance.to_dict())
        assert restored.degrees_override == instance.degrees_override
        for name in type(instance.index).PARITY_ARRAYS:
            left = getattr(instance.index, name)
            right = getattr(restored.index, name)
            assert left.dtype == right.dtype, name
            assert np.array_equal(left, right), name
        from repro.core import GGGreedy, LPPacking

        for algorithm in (GGGreedy(), LPPacking(alpha=1.0)):
            first = algorithm.solve(instance, seed=3)
            second = algorithm.solve(restored, seed=3)
            assert first.arrangement.pairs == second.arrangement.pairs
            assert first.utility == second.utility

    def test_repr(self):
        assert "tiny" in repr(tiny_instance())
