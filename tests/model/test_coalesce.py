"""Unit and equivalence tests for delta coalescing.

The micro-batcher folds several ingress operations into one tick delta via
:func:`repro.model.delta.coalesce_deltas`.  The contract is *index-bits
equivalence*: applying the coalesced delta must leave the instance — and
its patched index — bit-identical to applying the window's deltas one by
one.  (The carried arrangement may legitimately differ: a conflict that is
added and removed within one window never sheds pairs under coalescing,
because the transient constraint never exists.)
"""

import numpy as np
import pytest

from repro.datagen.churn import ChurnConfig, generate_churn_trace
from repro.datagen.synthetic import (
    SyntheticConfig,
    generate_synthetic,
    generate_synthetic_stream,
)
from repro.model import Delta, DeltaError, Event, User, apply_delta
from repro.model.delta import coalesce_deltas
from tests.model.test_delta import INDEX_ARRAYS, assert_index_parity
from tests.util import tiny_instance


def apply_all(instance, deltas, arrangement=None):
    """Sequential application; returns the final instance."""
    for delta in deltas:
        result = apply_delta(instance, delta, arrangement)
        instance, arrangement = result.instance, result.arrangement
    return instance


def assert_same_instance(sequential, coalesced):
    """Entity-level and index-bit equality of two instances."""
    assert [u.user_id for u in sequential.users] == [
        u.user_id for u in coalesced.users
    ]
    for a, b in zip(sequential.users, coalesced.users):
        assert a.capacity == b.capacity
        assert a.bids == b.bids, f"user {a.user_id} bid order diverged"
    assert [e.event_id for e in sequential.events] == [
        e.event_id for e in coalesced.events
    ]
    for a, b in zip(sequential.events, coalesced.events):
        assert a.capacity == b.capacity
    for name in INDEX_ARRAYS:
        assert np.array_equal(
            getattr(sequential.index, name), getattr(coalesced.index, name)
        ), f"index array {name} diverged"
    assert np.array_equal(sequential.store.bid_si, coalesced.store.bid_si)
    assert_index_parity(coalesced)


class TestCoalesceUnits:
    def test_empty_window(self):
        delta = coalesce_deltas([])
        assert delta.is_empty()

    def test_single_delta_passthrough_bits(self):
        instance = tiny_instance()
        delta = Delta(add_bids=((13, 1),), interest=((1, 13, 0.4),))
        sequential = apply_all(instance, [delta])
        coalesced = apply_all(tiny_instance(), [coalesce_deltas([delta])])
        assert_same_instance(sequential, coalesced)

    def test_added_then_removed_bid_cancels(self):
        delta = coalesce_deltas(
            [Delta(add_bids=((10, 2),)), Delta(remove_bids=((10, 2),))]
        )
        assert delta.add_bids == ()
        assert delta.remove_bids == ()

    def test_removed_then_readded_bid_keeps_both(self):
        """Cancelling would restore the old list position; sequential
        application re-appends at the end, so both operations must
        survive."""
        instance = tiny_instance()
        user = instance.users[0]
        first_bid = user.bids[0]
        window = [
            Delta(remove_bids=((user.user_id, first_bid),)),
            Delta(
                add_bids=((user.user_id, first_bid),),
                interest=((first_bid, user.user_id, 0.9),),
            ),
        ]
        delta = coalesce_deltas(window)
        assert (user.user_id, first_bid) in delta.remove_bids
        assert (user.user_id, first_bid) in delta.add_bids
        sequential = apply_all(instance, window)
        coalesced = apply_all(tiny_instance(), [delta])
        assert_same_instance(sequential, coalesced)
        resequenced = sequential.user_by_id[user.user_id]
        assert resequenced.bids[-1] == first_bid

    def test_user_added_then_removed_vanishes(self):
        arrival = User(user_id=99, capacity=1, bids=(1,))
        delta = coalesce_deltas(
            [
                Delta(add_users=(arrival,), interest=((1, 99, 0.5),)),
                Delta(remove_users=(99,)),
            ]
        )
        assert delta.add_users == ()
        assert delta.remove_users == ()
        # Their degree entries must vanish too, or validation fails.
        delta = coalesce_deltas(
            [
                Delta(add_users=(arrival,), interest=((1, 99, 0.5),), degrees=((99, 0.25),)),
                Delta(remove_users=(99,)),
            ]
        )
        assert delta.degrees == ()

    def test_window_added_user_folds_bids_and_caps(self):
        arrival = User(user_id=99, capacity=1, bids=(1,))
        delta = coalesce_deltas(
            [
                Delta(add_users=(arrival,), interest=((1, 99, 0.5),)),
                Delta(add_bids=((99, 2),), interest=((2, 99, 0.7),)),
                Delta(set_user_capacity=((99, 3),)),
            ]
        )
        assert len(delta.add_users) == 1
        folded = delta.add_users[0]
        assert folded.bids == (1, 2)
        assert folded.capacity == 3
        assert delta.add_bids == ()
        assert delta.set_user_capacity == ()

    def test_untouched_arrival_is_passed_through(self):
        """A window-added user whose bids and capacity the window leaves
        alone is the same object, not a re-validated copy."""
        arrival = User(user_id=99, capacity=1, bids=(1, 2))
        edited = User(user_id=98, capacity=1, bids=(1,))
        delta = coalesce_deltas(
            [
                Delta(add_users=(arrival, edited)),
                Delta(add_bids=((98, 2),), set_user_capacity=((10, 2),)),
            ]
        )
        assert delta.add_users[0] is arrival
        assert delta.add_users[1] is not edited
        assert delta.add_users[1].bids == (1, 2)

    def test_event_close_prunes_pending_references(self):
        opened = Event(event_id=50, capacity=5)
        arrival = User(user_id=99, capacity=1, bids=(1, 50))
        delta = coalesce_deltas(
            [
                Delta(add_events=(opened,), add_conflicts=((1, 50),)),
                Delta(
                    add_users=(arrival,),
                    interest=((1, 99, 0.5), (50, 99, 0.6)),
                ),
                Delta(add_bids=((10, 50),), interest=((50, 10, 0.4),)),
                Delta(remove_events=(50,)),
            ]
        )
        assert delta.add_events == ()
        assert delta.remove_events == ()
        assert delta.add_conflicts == ()
        assert all(event_id != 50 for _, event_id in delta.add_bids)
        assert delta.add_users[0].bids == (1,)

    def test_capacity_last_wins(self):
        delta = coalesce_deltas(
            [
                Delta(set_event_capacity=((1, 5),)),
                Delta(set_event_capacity=((1, 9),)),
            ]
        )
        assert delta.set_event_capacity == ((1, 9),)

    def test_conflict_add_then_remove_cancels(self):
        delta = coalesce_deltas(
            [Delta(add_conflicts=((1, 2),)), Delta(remove_conflicts=((2, 1),))]
        )
        assert delta.add_conflicts == ()
        assert delta.remove_conflicts == ()

    def test_id_reuse_within_window_raises(self):
        # A window-added user that departs simply vanishes, but reusing the
        # id of a *pre-window* user removed in the same window cannot be
        # expressed as one delta.
        returning = User(user_id=13, capacity=1, bids=(3,))
        with pytest.raises(DeltaError):
            coalesce_deltas(
                [
                    Delta(remove_users=(13,)),
                    Delta(add_users=(returning,), interest=((3, 13, 0.5),)),
                ]
            )
        reopened = Event(event_id=3, capacity=2)
        with pytest.raises(DeltaError):
            coalesce_deltas(
                [Delta(remove_events=(3,)), Delta(add_events=(reopened,))]
            )


class TestCoalesceEquivalence:
    """Generator-scale: coalescing churn windows is index-bits exact.

    Runs on an object-built platform here and on a stream-built one in
    :class:`TestCoalesceEquivalenceStream`.
    """

    generator = staticmethod(generate_synthetic)

    @pytest.mark.parametrize("window", [2, 3, 5])
    def test_churn_trace_windows(self, window):
        instance = self.generator(
            SyntheticConfig(num_users=80, num_events=20), seed=3
        )
        trace = generate_churn_trace(
            instance,
            ChurnConfig(
                num_batches=10,
                user_arrival_rate=5,
                user_departure_rate=4,
                rebid_rate=8,
                event_open_rate=1,
                event_close_rate=1,
                conflict_toggle_rate=2,
                drift_rate=4,
                capacity_shock_rate=1,
                user_capacity_shock_rate=1,
                burst_every=4,
            ),
            seed=17,
        )
        sequential = apply_all(instance, trace.deltas)
        coalesced_instance = self.generator(
            SyntheticConfig(num_users=80, num_events=20), seed=3
        )
        grouped = [
            coalesce_deltas(trace.deltas[i : i + window])
            for i in range(0, len(trace.deltas), window)
        ]
        coalesced = apply_all(coalesced_instance, grouped)
        assert_same_instance(sequential, coalesced)

    def test_carried_arrangement_stays_feasible(self):
        instance = self.generator(
            SyntheticConfig(num_users=60, num_events=15), seed=5
        )
        from repro.core.baselines import GGGreedy

        arrangement = GGGreedy().solve(instance, seed=0).arrangement
        trace = generate_churn_trace(
            instance,
            ChurnConfig(
                num_batches=6,
                user_arrival_rate=4,
                user_departure_rate=3,
                rebid_rate=6,
                conflict_toggle_rate=2,
            ),
            seed=23,
        )
        delta = coalesce_deltas(trace.deltas)
        result = apply_delta(instance, delta, arrangement)
        assert result.arrangement.is_feasible()

    def _platform(self):
        return self.generator(SyntheticConfig(num_users=30, num_events=8), seed=3)

    def _assert_both_ways(self, window, pair):
        """One by one and coalesced agree, and the pair reads the interest
        function's value."""
        event_id, user_id = pair
        sequential = apply_all(self._platform(), window)
        coalesced = apply_all(self._platform(), [coalesce_deltas(window)])
        assert_same_instance(sequential, coalesced)
        function = self._platform().interest.items().get(pair, 0.0)
        assert sequential.interest_of(event_id, user_id) == function
        assert coalesced.interest_of(event_id, user_id) == function

    def test_withdrawn_bid_readded_without_entry(self):
        user = self._platform().users[0]
        bid = (user.user_id, user.bids[0])
        window = [Delta(remove_bids=(bid,)), Delta(add_bids=(bid,))]
        self._assert_both_ways(window, (bid[1], bid[0]))

    def test_entry_on_non_bid_pair_then_add_without_entry(self):
        platform = self._platform()
        user = platform.users[0]
        event_id = next(
            e.event_id for e in platform.events if e.event_id not in user.bids
        )
        window = [
            Delta(interest=((event_id, user.user_id, 0.5),)),
            Delta(add_bids=((user.user_id, event_id),)),
        ]
        assert coalesce_deltas(window).interest == ()
        self._assert_both_ways(window, (event_id, user.user_id))


class TestCoalesceEquivalenceStream(TestCoalesceEquivalence):
    """The equivalence tests on a stream-built platform (whose interest
    function is an empty table)."""

    generator = staticmethod(generate_synthetic_stream)
