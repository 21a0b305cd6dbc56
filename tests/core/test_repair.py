"""Unit tests for targeted local search and churn repair."""

import pytest

from repro.core import GGGreedy, improve, repair
from repro.model import Arrangement, Delta, Event, User, apply_delta
from tests.util import random_instance, tiny_instance


class TestTargetedImprove:
    def test_empty_scopes_do_nothing(self):
        instance = tiny_instance()
        arrangement = Arrangement(instance)
        moves = improve(
            instance, arrangement, user_positions=[], event_positions=[]
        )
        assert len(arrangement) == 0
        assert moves["adds"] == 0

    def test_scoped_user_only_gains_their_moves(self):
        instance = tiny_instance()
        arrangement = Arrangement(instance)
        upos = instance.index.user_pos[13]  # bids only event 3
        improve(
            instance, arrangement, user_positions=[upos], event_positions=[]
        )
        assert arrangement.pairs == {(3, 13)}

    def test_full_scope_matches_default(self):
        instance = random_instance(seed=3, num_users=15, num_events=6)
        first = Arrangement(instance)
        improve(instance, first)
        second = Arrangement(instance)
        improve(
            instance,
            second,
            user_positions=range(instance.num_users),
            event_positions=range(instance.num_events),
        )
        assert first.pairs == second.pairs

    @pytest.mark.parametrize("seed", range(3))
    def test_scoped_improve_stays_feasible(self, seed):
        instance = random_instance(seed=seed, num_users=20, num_events=8)
        arrangement = GGGreedy().solve(instance, seed=seed).arrangement
        before = arrangement.utility()
        improve(
            instance,
            arrangement,
            user_positions=range(0, instance.num_users, 2),
            event_positions=range(0, instance.num_events, 2),
        )
        assert arrangement.is_feasible()
        assert arrangement.utility() >= before - 1e-12


class TestRepair:
    def test_requires_arrangement(self):
        result = apply_delta(tiny_instance(), Delta())
        with pytest.raises(ValueError, match="no arrangement"):
            repair(result)

    def test_repair_refills_freed_capacity(self):
        instance = tiny_instance()
        # Event 2 (capacity 1) held by user 10; removing 10 frees the seat
        # for bidder 12, which only a repair scoped to the touched event
        # can discover.
        arrangement = Arrangement.from_pairs(
            instance, [(2, 10), (3, 11), (3, 12)]
        )
        result = apply_delta(instance, Delta(remove_users=(10,)), arrangement)
        moves = repair(result)
        assert (2, 12) in result.arrangement.pairs
        assert moves["refills"] >= 1
        assert moves["dropped_pairs"] == 1
        assert result.arrangement.is_feasible()

    def test_new_user_is_served(self):
        """A new user with an uncontested seat is assigned by repair."""
        instance = tiny_instance()
        arrangement = Arrangement.from_pairs(instance, [(3, 13)])
        result = apply_delta(
            instance,
            Delta(
                add_events=(Event(event_id=9, capacity=1),),
                add_users=(User(user_id=70, capacity=1, bids=(9,)),),
                interest=((9, 70, 1.0),),
            ),
            arrangement,
        )
        repair(result)
        assert (9, 70) in result.arrangement.pairs

    def test_new_user_without_interest_entries_can_evict(self):
        """Regression: add_users' bid events were missing from
        touched_events, so when the pair's interest pre-existed in the
        table (no delta interest entries), repair never rescanned the full
        event and a heavier arrival could not displace a lighter attendee."""
        from repro.model import IGEPAInstance, MatrixConflict, TabulatedInterest
        from repro.social import Graph

        instance = IGEPAInstance(
            events=[Event(event_id=1, capacity=1)],
            users=[User(user_id=10, capacity=1, bids=(1,))],
            conflict=MatrixConflict([]),
            # The future arrival's interest is already tabulated.
            interest=TabulatedInterest({(1, 10): 0.1, (1, 11): 0.9}),
            social=Graph(nodes=[10]),
        )
        arrangement = Arrangement.from_pairs(instance, [(1, 10)])
        result = apply_delta(
            instance,
            Delta(add_users=(User(user_id=11, capacity=1, bids=(1,)),)),
            arrangement,
        )
        moves = repair(result)
        assert 1 in result.touched_events
        assert result.arrangement.pairs == {(1, 11)}
        assert moves["evictions"] == 1

    def test_new_user_loses_contested_seats_to_heavier_bidders(self):
        """When the new user's only event is contested, repair may serve
        the heavier waiting bidders instead — the higher-utility optimum
        (the interest re-weight marks the event touched, so its whole
        bidder pool competes)."""
        instance = tiny_instance()
        arrangement = Arrangement.from_pairs(instance, [(3, 13)])
        result = apply_delta(
            instance,
            Delta(
                add_users=(User(user_id=70, capacity=1, bids=(1,)),),
                interest=((1, 70, 1.0),),
            ),
            arrangement,
        )
        repair(result)
        # Event 1 (capacity 2): users 10 and 11 outweigh the degree-0
        # newcomer, whose lone serving would have scored lower.
        assert result.arrangement.users_of(1) == {10, 11}
        lone_newcomer = 0.5 * 1.0 + 0.5 * 0.0  # w(1, 70)
        assert result.arrangement.utility() > lone_newcomer

    def test_new_event_attracts_rebid(self):
        instance = tiny_instance()
        arrangement = Arrangement.from_pairs(instance, [(3, 13)])
        result = apply_delta(
            instance,
            Delta(
                add_events=(Event(event_id=9, capacity=2),),
                add_bids=((10, 9),),
                interest=((9, 10, 1.0),),
            ),
            arrangement,
        )
        repair(result)
        assert (9, 10) in result.arrangement.pairs
        assert result.arrangement.is_feasible()

    def test_interest_reweight_triggers_upgrade(self):
        """Regression: interest-only deltas left the touched sets empty, so
        a re-weighted bid was never re-optimized."""
        from repro.model import IGEPAInstance, MatrixConflict, TabulatedInterest
        from repro.social import Graph

        instance = IGEPAInstance(
            events=[Event(event_id=10, capacity=2), Event(event_id=11, capacity=2)],
            users=[User(user_id=1, capacity=1, bids=(10, 11))],
            conflict=MatrixConflict([]),
            interest=TabulatedInterest({(10, 1): 0.8, (11, 1): 0.1}),
            social=Graph(nodes=[1]),
        )
        arrangement = Arrangement.from_pairs(instance, [(10, 1)])
        result = apply_delta(instance, Delta(interest=((11, 1, 0.99),)), arrangement)
        moves = repair(result)
        assert result.arrangement.pairs == {(11, 1)}
        assert moves["upgrades"] == 1

    def test_utility_never_decreases_from_carryover(self):
        instance = random_instance(seed=11, num_users=25, num_events=8)
        arrangement = GGGreedy().solve(instance, seed=0).arrangement
        delta = Delta(remove_users=(instance.users[0].user_id,))
        result = apply_delta(instance, delta, arrangement)
        carried_utility = result.arrangement.utility()
        repair(result)
        assert result.arrangement.utility() >= carried_utility - 1e-12
