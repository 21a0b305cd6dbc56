"""Unit tests for Arrangement: feasibility constraints, utility, the
agreement of every derived view with a plain set of pairs, and the store's
memory footprint."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GGGreedy
from repro.datagen import (
    ChurnConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic_stream,
)
from repro.model import Arrangement, ArrangementError, apply_delta
from tests.util import random_instance, tiny_instance


@pytest.fixture
def instance():
    return tiny_instance()


class TestBidConstraint:
    def test_assigned_event_must_be_bid(self, instance):
        arrangement = Arrangement(instance)
        with pytest.raises(ArrangementError, match="bid constraint"):
            arrangement.add(3, 10)  # user 10 bids only for 1, 2

    def test_bid_event_is_accepted(self, instance):
        arrangement = Arrangement(instance)
        arrangement.add(1, 10)
        assert (1, 10) in arrangement


class TestCapacityConstraints:
    def test_event_capacity_enforced(self, instance):
        arrangement = Arrangement(instance)
        arrangement.add(2, 10)  # event 2 has capacity 1
        with pytest.raises(ArrangementError, match="event 2 is full"):
            arrangement.add(2, 12)

    def test_user_capacity_enforced(self, instance):
        arrangement = Arrangement(instance)
        arrangement.add(1, 10)  # user 10 has capacity 1
        with pytest.raises(ArrangementError, match="user 10 is at capacity"):
            arrangement.add(2, 10)

    def test_capacity_frees_after_removal(self, instance):
        arrangement = Arrangement(instance)
        arrangement.add(2, 10)
        arrangement.remove(2, 10)
        arrangement.add(2, 12)  # capacity 1 slot reusable
        assert (2, 12) in arrangement


class TestConflictConstraint:
    def test_conflicting_events_rejected_for_same_user(self, instance):
        # Events 1 and 2 conflict; user 12 bids {2, 3} so use a user who bids both.
        arrangement = Arrangement(instance)
        arrangement.add(1, 11)
        arrangement.add(3, 11)  # 1 and 3 do not conflict
        assert len(arrangement) == 2

    def test_conflict_detected(self, instance):
        # Give user 10 capacity 2 via a fresh check: bids (1, 2) conflict.
        arrangement = Arrangement(instance)
        arrangement.add(1, 10)
        # user 10 capacity is 1, so capacity triggers first; use user 12 for
        # the conflict path instead: bids (2, 3), no conflict there, so build
        # a direct conflict via user 11? 11 bids (1, 3) non-conflicting.
        # The tiny instance has only users 10 with both conflicting bids, so
        # check can_add reports False for the second conflicting event.
        assert not arrangement.can_add(2, 10)

    def test_conflict_error_message(self):
        from repro.model import Event, IGEPAInstance, MatrixConflict, TabulatedInterest, User
        from repro.social import Graph

        events = [Event(event_id=1, capacity=2), Event(event_id=2, capacity=2)]
        users = [User(user_id=5, capacity=2, bids=(1, 2))]
        instance = IGEPAInstance(
            events,
            users,
            MatrixConflict([(1, 2)]),
            TabulatedInterest({(1, 5): 0.5, (2, 5): 0.5}),
            Graph(nodes=[5]),
        )
        arrangement = Arrangement(instance)
        arrangement.add(1, 5)
        with pytest.raises(ArrangementError, match="conflict constraint"):
            arrangement.add(2, 5)

    def test_conflict_message_names_the_first_assigned_conflict(self):
        """Several assigned events conflict: the message names the first of
        them in the user's event order, ascending event position, whatever
        order they were given in."""
        from repro.model import (
            Event,
            IGEPAInstance,
            MatrixConflict,
            TabulatedInterest,
            User,
        )
        from repro.social import Graph

        events = [Event(event_id=e, capacity=1) for e in (1, 2, 3, 4)]
        users = [User(user_id=5, capacity=4, bids=(1, 2, 3, 4))]
        instance = IGEPAInstance(
            events,
            users,
            MatrixConflict([(4, 3), (4, 2)]),
            TabulatedInterest({}, default=0.5),
            Graph(nodes=[5]),
        )
        arrangement = Arrangement(instance)
        for event_id in (3, 1, 2):
            arrangement.add(event_id, 5)
        with pytest.raises(
            ArrangementError,
            match="conflict constraint: events 4 and 2 conflict for user 5",
        ):
            arrangement.add(4, 5)
        assert not arrangement.can_add(4, 5)


class TestMutationBookkeeping:
    def test_duplicate_pair_rejected(self, instance):
        arrangement = Arrangement(instance)
        arrangement.add(1, 10)
        with pytest.raises(ArrangementError, match="already present"):
            arrangement.add(1, 10)

    def test_unknown_ids_rejected(self, instance):
        arrangement = Arrangement(instance)
        with pytest.raises(ArrangementError, match="unknown event"):
            arrangement.add(99, 10)
        with pytest.raises(ArrangementError, match="unknown user"):
            arrangement.add(1, 999)

    @pytest.mark.parametrize(
        "pair, message",
        [
            ((3, 10), "bid constraint"),
            ((99, 10), "unknown event"),
            ((1, 999), "unknown user"),
        ],
    )
    def test_unchecked_add_keeps_the_bid_contract(self, instance, pair, message):
        """``check=False`` skips only the capacity and conflict probes: an
        unknown id or a non-bid pair is rejected and changes nothing."""
        arrangement = Arrangement.from_pairs(instance, [(1, 11), (3, 13)])
        before = (
            arrangement.pairs,
            len(arrangement),
            arrangement.attendance_counts.tolist(),
            arrangement.load_counts.tolist(),
            arrangement.assignment_words.copy(),
        )
        with pytest.raises(ArrangementError, match=message):
            arrangement.add(*pair, check=False)
        assert arrangement.pairs == before[0]
        assert len(arrangement) == before[1]
        assert arrangement.attendance_counts.tolist() == before[2]
        assert arrangement.load_counts.tolist() == before[3]
        assert (arrangement.assignment_words == before[4]).all()
        assert pair not in arrangement

    def test_remove_missing_pair_raises(self, instance):
        with pytest.raises(ArrangementError, match="not in arrangement"):
            Arrangement(instance).remove(1, 10)

    def test_views(self, instance):
        arrangement = Arrangement(instance)
        arrangement.add(1, 11)
        arrangement.add(3, 11)
        arrangement.add(3, 13)
        assert arrangement.events_of(11) == {1, 3}
        assert arrangement.users_of(3) == {11, 13}
        assert arrangement.attendance(3) == 2
        assert arrangement.load(11) == 2
        assert arrangement.load(10) == 0

    def test_iteration_and_len(self, instance):
        arrangement = Arrangement(instance)
        arrangement.add(1, 10)
        arrangement.add(3, 13)
        assert len(arrangement) == 2
        assert set(arrangement) == {(1, 10), (3, 13)}

    def test_from_pairs(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (3, 13)])
        assert len(arrangement) == 2

    def test_copy_is_independent(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(1, 10)])
        clone = arrangement.copy()
        clone.add(3, 13)
        assert len(arrangement) == 1
        assert len(clone) == 2


class TestFeasibilityAudit:
    def test_feasible_arrangement_has_no_violations(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (1, 11), (3, 12)])
        assert arrangement.is_feasible()
        assert arrangement.violations() == []

    def test_unchecked_bid_violation_detected(self, instance):
        """The bid constraint holds even unchecked: the pair is refused, so
        the audit never sees one."""
        arrangement = Arrangement(instance)
        with pytest.raises(ArrangementError, match="bid constraint"):
            arrangement.add(3, 10, check=False)  # 10 did not bid for 3
        assert arrangement.is_feasible()
        assert arrangement.violations() == []

    def test_unchecked_capacity_violation_detected(self, instance):
        arrangement = Arrangement(instance)
        arrangement.add(2, 10, check=False)
        arrangement.add(2, 12, check=False)  # event 2 capacity 1
        assert any("capacity: event 2" in v for v in arrangement.violations())

    def test_unchecked_user_capacity_violation_detected(self, instance):
        arrangement = Arrangement(instance)
        arrangement.add(1, 10, check=False)
        arrangement.add(2, 10, check=False)  # user 10 capacity 1 (also conflict)
        violations = arrangement.violations()
        assert any("capacity: user 10" in v for v in violations)
        assert any("conflict" in v for v in violations)


class TestUtility:
    def test_empty_arrangement_utility_is_zero(self, instance):
        assert Arrangement(instance).utility() == 0.0

    def test_utility_matches_definition(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (3, 11)])
        beta = instance.beta
        expected = (
            beta * (0.9 + 0.8)
            + (1 - beta) * (instance.degree(10) + instance.degree(11))
        )
        assert arrangement.utility() == pytest.approx(expected)

    def test_utility_decomposition(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (3, 11)])
        assert arrangement.interest_total() == pytest.approx(1.7)
        assert arrangement.interaction_total() == pytest.approx(1.0)
        assert arrangement.utility() == pytest.approx(
            instance.beta * arrangement.interest_total()
            + (1 - instance.beta) * arrangement.interaction_total()
        )

    def test_utility_additivity_under_removal(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (3, 11)])
        before = arrangement.utility()
        arrangement.remove(3, 11)
        assert arrangement.utility() == pytest.approx(
            before - instance.weight(11, 3)
        )

    def test_repr_contains_utility(self, instance):
        arrangement = Arrangement.from_pairs(instance, [(1, 10)])
        assert "pairs=1" in repr(arrangement)


def assert_views_match_pairs(arrangement, expected):
    """Every view of the store agrees with ``expected``, a plain set of
    ``(event_id, user_id)`` pairs kept beside the store."""
    index = arrangement.instance.index
    event_ids = index.event_ids.tolist()
    user_ids = index.user_ids.tolist()
    assert arrangement.pairs == expected
    assert len(arrangement) == len(expected)
    # User position by user position, each user's in ascending event position.
    assert list(arrangement) == sorted(
        expected, key=lambda pair: (index.user_pos[pair[1]], index.event_pos[pair[0]])
    )
    upos, vpos = arrangement.assigned_positions()
    assert sorted(zip(upos.tolist(), vpos.tolist())) == sorted(
        (index.user_pos[u], index.event_pos[e]) for e, u in expected
    )
    grid_u, grid_v = np.divmod(np.arange(len(user_ids) * len(event_ids)), len(event_ids))
    held = arrangement.assigned_mask(grid_u, grid_v)
    for k, (u, v) in enumerate(zip(grid_u.tolist(), grid_v.tolist())):
        pair = (event_ids[v], user_ids[u])
        assert (pair in arrangement) == (pair in expected) == bool(held[k])
    loads = [sum(1 for _, u in expected if u == user_id) for user_id in user_ids]
    seats = [sum(1 for e, _ in expected if e == event_id) for event_id in event_ids]
    assert arrangement.load_counts.tolist() == loads
    assert arrangement.attendance_counts.tolist() == seats
    for user_id, load in zip(user_ids, loads):
        assert arrangement.events_of(user_id) == {e for e, u in expected if u == user_id}
        assert arrangement.load(user_id) == load
    for event_id, seated in zip(event_ids, seats):
        assert arrangement.users_of(event_id) == {u for e, u in expected if e == event_id}
        assert arrangement.attendance(event_id) == seated


class TestViewsAgreeWithMatrix:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        sharded=st.booleans(),
        num_events=st.sampled_from((6, 63, 64, 65, 130)),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=10**6)),
            max_size=40,
        ),
    )
    def test_after_mutation_copy_and_carry(self, seed, sharded, num_events, ops):
        """Random adds and removes (checked, and unchecked past capacity and
        conflicts), then ``copy()`` and one ``apply_delta`` carry, on dense
        and CSR indexes and on either side of the 64-event word
        boundaries, each replayed on a plain set of pairs."""
        instance = random_instance(
            seed=seed,
            num_users=12,
            num_events=num_events,
            conflict_probability=0.4,
            max_bids=8,
        )
        instance.configure_index(sharded=sharded)
        bid_pairs = [(e, user.user_id) for user in instance.users for e in user.bids]
        arrangement = Arrangement(instance)
        expected: set[tuple[int, int]] = set()
        for checked, k in ops:
            pair = bid_pairs[k % len(bid_pairs)]
            if pair in expected:
                arrangement.remove(*pair)
                expected.discard(pair)
            elif not checked:
                arrangement.add(*pair, check=False)
                expected.add(pair)
            elif arrangement.can_add(*pair):
                arrangement.add(*pair)
                expected.add(pair)
        assert_views_match_pairs(arrangement, expected)

        clone = arrangement.copy()
        clone_expected = set(expected)
        for pair in sorted(expected)[::2]:
            clone.remove(*pair)
            clone_expected.discard(pair)
        assert_views_match_pairs(arrangement, expected)
        assert_views_match_pairs(clone, clone_expected)

        config = ChurnConfig(
            num_batches=1,
            user_arrival_rate=2.0,
            user_departure_rate=2.0,
            rebid_rate=3.0,
            conflict_toggle_rate=2.0,
            capacity_shock_rate=1.0,
            user_capacity_shock_rate=1.0,
        )
        delta = generate_churn_trace(instance, config, seed=seed).deltas[0]
        result = apply_delta(instance, delta, arrangement)
        assert_views_match_pairs(arrangement, expected)
        dropped = set(result.dropped_pairs)
        assert dropped <= expected
        assert_views_match_pairs(result.arrangement, expected - dropped)


class TestFootprint:
    def test_copy_allocates_a_fraction_of_a_byte_per_cell(self):
        """At |V| = 500 the store is one bit per user x event cell plus the
        counters: ``copy()`` allocates under |U|·|V|/4 bytes, and no
        attribute is an array with |U|·|V| elements."""
        instance = generate_synthetic_stream(
            SyntheticConfig(num_users=20_000, num_events=500), seed=0
        )
        instance.configure_index(sharded=True)
        arrangement = GGGreedy().solve(instance, seed=0).arrangement
        assert len(arrangement) > 0
        cells = instance.num_users * instance.num_events
        tracemalloc.start()
        try:
            clone = arrangement.copy()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cells / 4
        for holder in (arrangement, clone):
            for name, value in vars(holder).items():
                if isinstance(value, np.ndarray):
                    assert value.size < cells, name
