"""The array carry of :func:`repro.model.delta.apply_delta` against the
scalar reference (``tests/util.py::reference_carry``).

Both take the same predecessor, successor and position maps; the carried
pairs, the dropped list (in order) and the touched sets must be equal, on
the dense and on the sharded index.  The hand-built cases pin the rules the
property draws only by chance: conflicts in delta order, both tie rules,
shedding on both sides in one delta, and conflicts on events the same delta
opens.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GGGreedy
from repro.model import (
    Arrangement,
    Delta,
    Event,
    IGEPAInstance,
    MatrixConflict,
    TabulatedInterest,
    User,
    apply_delta,
)
from repro.model.delta import _carry_arrangement, _position_maps
from repro.social import Graph, erdos_renyi_graph
from tests.util import reference_carry


def tied_instance(seed: int, num_users: int, num_events: int, beta: float):
    """A random instance whose SI values come from three levels, so equal
    weights (the tie rules' inputs) are common."""
    rng = np.random.default_rng(seed)
    events = [
        Event(event_id=e, capacity=int(rng.integers(1, 4))) for e in range(num_events)
    ]
    user_ids = list(range(100, 100 + num_users))
    users = []
    interest = {}
    for user_id in user_ids:
        count = int(rng.integers(1, min(5, num_events) + 1))
        bids = tuple(int(b) for b in rng.choice(num_events, size=count, replace=False))
        users.append(
            User(user_id=user_id, capacity=int(rng.integers(1, 4)), bids=bids)
        )
        for event_id in bids:
            interest[(event_id, user_id)] = float(rng.choice([0.25, 0.5, 0.75]))
    return IGEPAInstance(
        events=events,
        users=users,
        conflict=MatrixConflict.sample(range(num_events), 0.2, rng),
        interest=TabulatedInterest(interest),
        social=erdos_renyi_graph(user_ids, 0.3, rng=rng),
        beta=beta,
        name=f"tied-{seed}",
    )


def assert_carry_matches_reference(instance, arrangement, delta):
    """Run both carries on one successor; return the array carry's output."""
    successor = apply_delta(instance, delta).instance
    outputs = []
    for carry in (_carry_arrangement, reference_carry):
        maps = _position_maps(instance.index, delta)
        outputs.append(carry(instance, successor, arrangement, delta, maps))
    (carried, dropped, users, events), (ref, ref_dropped, ref_users, ref_events) = (
        outputs
    )
    for got, want in zip(carried.assigned_positions(), ref.assigned_positions()):
        assert np.array_equal(got, want)
    assert np.array_equal(carried.attendance_counts, ref.attendance_counts)
    assert np.array_equal(carried.load_counts, ref.load_counts)
    assert dropped == ref_dropped
    assert (users, events) == (ref_users, ref_events)
    assert carried.violations() == []
    return carried, dropped


@st.composite
def carry_cases(draw):
    seed = draw(st.integers(0, 10_000))
    instance = tied_instance(
        seed,
        num_users=draw(st.integers(8, 24)),
        num_events=draw(st.integers(4, 8)),
        beta=draw(st.sampled_from([0.5, 1.0])),
    )
    if draw(st.booleans()):
        instance.configure_index(sharded=True)
    arrangement = GGGreedy().solve(instance, seed=seed).arrangement

    user_ids = [user.user_id for user in instance.users]
    event_ids = [event.event_id for event in instance.events]
    remove_users = draw(st.lists(st.sampled_from(user_ids), unique=True, max_size=3))
    remove_events = draw(st.lists(st.sampled_from(event_ids), unique=True, max_size=1))
    add_events = (Event(event_id=1000, capacity=2),) if draw(st.booleans()) else ()
    surviving_events = [e for e in event_ids if e not in remove_events]
    surviving_users = [u for u in user_ids if u not in remove_users]

    events = surviving_events + [event.event_id for event in add_events]
    fresh_pairs = [
        (a, b)
        for a in events
        for b in events
        if a != b and not instance.conflict.conflicts_ids(a, b)
    ]
    add_conflicts = (
        draw(
            st.lists(
                st.sampled_from(fresh_pairs),
                unique_by=lambda pair: frozenset(pair),
                max_size=6,
            )
        )
        if fresh_pairs
        else []
    )
    held = sorted(arrangement.pairs)
    withdrawn = [
        (user_id, event_id)
        for event_id, user_id in held
        if user_id in surviving_users
    ]
    remove_bids = (
        draw(st.lists(st.sampled_from(withdrawn), unique=True, max_size=2))
        if withdrawn
        else []
    )
    event_caps = draw(
        st.lists(
            st.tuples(st.sampled_from(surviving_events), st.integers(0, 3)),
            unique_by=lambda change: change[0],
            max_size=3,
        )
        if surviving_events
        else st.just([])
    )
    user_caps = draw(
        st.lists(
            st.tuples(st.sampled_from(surviving_users), st.integers(0, 3)),
            unique_by=lambda change: change[0],
            max_size=4,
        )
        if surviving_users
        else st.just([])
    )
    delta = Delta(
        remove_users=tuple(remove_users),
        remove_events=tuple(remove_events),
        add_events=add_events,
        remove_bids=tuple(remove_bids),
        add_conflicts=tuple(add_conflicts),
        set_event_capacity=tuple(event_caps),
        set_user_capacity=tuple(user_caps),
    )
    return instance, arrangement, delta


class TestCarryAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(carry_cases())
    def test_carry_equals_scalar_reference(self, case):
        instance, arrangement, delta = case
        assert_carry_matches_reference(instance, arrangement, delta)


def chain_instance(weights: dict[int, float], capacity: int = 3) -> IGEPAInstance:
    """One user (id 1) bidding on events with the given SI values, no
    conflicts, degree 0."""
    events = [Event(event_id=e, capacity=2) for e in weights]
    users = [User(user_id=1, capacity=capacity, bids=tuple(weights))]
    interest = {(event_id, 1): value for event_id, value in weights.items()}
    return IGEPAInstance(
        events,
        users,
        MatrixConflict([]),
        TabulatedInterest(interest),
        Graph(nodes=[1]),
    )


def seated(instance, pairs):
    return Arrangement.from_pairs(instance, pairs)


@pytest.mark.parametrize("sharded", [False, True], ids=["dense", "sharded"])
class TestCarryCases:
    @staticmethod
    def _index(instance, sharded):
        if sharded:
            instance.configure_index(sharded=True)
        return instance

    def test_conflict_between_attended_events(self, sharded):
        instance = self._index(chain_instance({1: 0.9, 2: 0.4}), sharded)
        arrangement = seated(instance, [(1, 1), (2, 1)])
        carried, dropped = assert_carry_matches_reference(
            instance, arrangement, Delta(add_conflicts=((1, 2),))
        )
        assert carried.pairs == {(1, 1)}
        assert dropped == [(2, 1)]

    def test_conflicts_sharing_a_user_apply_in_order(self, sharded):
        """(a, b) drops b, so (b, c) then finds nobody on both and c stays;
        taken the other way round, c would go first and b after it."""
        instance = self._index(chain_instance({1: 0.9, 2: 0.5, 3: 0.1}), sharded)
        arrangement = seated(instance, [(1, 1), (2, 1), (3, 1)])
        carried, dropped = assert_carry_matches_reference(
            instance, arrangement, Delta(add_conflicts=((1, 2), (2, 3)))
        )
        assert carried.pairs == {(1, 1), (3, 1)}
        assert dropped == [(2, 1)]

    def test_conflict_tie_drops_higher_event_id(self, sharded):
        for pair in ((1, 2), (2, 1)):
            instance = self._index(chain_instance({1: 0.5, 2: 0.5}), sharded)
            arrangement = seated(instance, [(1, 1), (2, 1)])
            carried, dropped = assert_carry_matches_reference(
                instance, arrangement, Delta(add_conflicts=(pair,))
            )
            assert dropped == [(2, 1)]

    def test_shed_ties_drop_higher_ids(self, sharded):
        """Event 1 seats users 1-3 at equal weight: shrinking it to one
        sheds users 3 then 2.  User 4 attends events 2-4 at equal weight:
        shrinking them to one sheds events 4 then 3."""
        events = [Event(event_id=e, capacity=3) for e in (1, 2, 3, 4)]
        users = [User(user_id=u, capacity=3, bids=(1,)) for u in (1, 2, 3)]
        users.append(User(user_id=4, capacity=3, bids=(2, 3, 4)))
        interest = {(1, u): 0.5 for u in (1, 2, 3)}
        interest.update({(e, 4): 0.5 for e in (2, 3, 4)})
        instance = IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest(interest),
            Graph(nodes=[1, 2, 3, 4]),
        )
        instance = self._index(instance, sharded)
        arrangement = seated(
            instance, [(1, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 4)]
        )
        carried, dropped = assert_carry_matches_reference(
            instance,
            arrangement,
            Delta(set_event_capacity=((1, 1),), set_user_capacity=((4, 1),)),
        )
        assert dropped == [(1, 3), (1, 2), (4, 4), (3, 4)]
        assert carried.pairs == {(1, 1), (2, 4)}

    def test_event_and_user_shrink_in_one_delta(self, sharded):
        """The event side sheds first, so the user side counts the load
        the event shed left: user 2 loses event 1 to the event shrink and
        then sits at its new capacity of one."""
        events = [Event(event_id=1, capacity=2), Event(event_id=2, capacity=2)]
        users = [
            User(user_id=1, capacity=2, bids=(1, 2)),
            User(user_id=2, capacity=2, bids=(1, 2)),
        ]
        interest = {(1, 1): 0.9, (2, 1): 0.3, (1, 2): 0.2, (2, 2): 0.8}
        instance = IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest(interest),
            Graph(nodes=[1, 2]),
        )
        instance = self._index(instance, sharded)
        arrangement = seated(instance, [(1, 1), (2, 1), (1, 2), (2, 2)])
        carried, dropped = assert_carry_matches_reference(
            instance,
            arrangement,
            Delta(
                set_event_capacity=((1, 1),),
                set_user_capacity=((2, 1), (1, 1)),
            ),
        )
        assert dropped == [(1, 2), (2, 1)]
        assert carried.pairs == {(1, 1), (2, 2)}

    def test_conflict_on_an_event_the_delta_adds(self, sharded):
        instance = self._index(chain_instance({1: 0.9, 2: 0.4}), sharded)
        arrangement = seated(instance, [(1, 1), (2, 1)])
        carried, dropped = assert_carry_matches_reference(
            instance,
            arrangement,
            Delta(
                add_events=(Event(event_id=9, capacity=1),),
                add_conflicts=((9, 1), (2, 9)),
            ),
        )
        assert carried.pairs == {(1, 1), (2, 1)}
        assert dropped == []
