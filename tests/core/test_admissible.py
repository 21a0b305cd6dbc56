"""Unit tests for admissible event set enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AdmissibleSetExplosion,
    enumerate_admissible_sets,
    enumerate_all_admissible_sets,
    is_admissible,
)
from repro.core.admissible import enumerate_admissible_batch, split_sets
from repro.model import (
    Event,
    IGEPAInstance,
    MatrixConflict,
    NoConflict,
    TabulatedInterest,
    User,
)
from repro.social import Graph
from tests.util import dfs_admissible_sets, random_instance, tiny_instance


def _instance(num_events, conflicts, user_capacity, bids):
    events = [Event(event_id=i, capacity=3) for i in range(num_events)]
    users = [User(user_id=0, capacity=user_capacity, bids=tuple(bids))]
    return IGEPAInstance(
        events,
        users,
        MatrixConflict(conflicts),
        TabulatedInterest({}, default=0.5),
        Graph(nodes=[0]),
    )


class TestEnumeration:
    def test_no_conflicts_enumerates_all_bounded_subsets(self):
        instance = _instance(3, [], 2, [0, 1, 2])
        sets = enumerate_admissible_sets(instance, instance.users[0])
        expected = {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)}
        assert set(sets) == expected

    def test_capacity_one_gives_singletons(self):
        instance = _instance(3, [], 1, [0, 1, 2])
        sets = enumerate_admissible_sets(instance, instance.users[0])
        assert set(sets) == {(0,), (1,), (2,)}

    def test_conflicting_pair_excluded(self):
        instance = _instance(3, [(0, 1)], 3, [0, 1, 2])
        sets = enumerate_admissible_sets(instance, instance.users[0])
        assert (0, 1) not in sets
        assert (0, 1, 2) not in sets
        assert {(0,), (1,), (2,), (0, 2), (1, 2)} == set(sets)

    def test_all_conflicting_gives_singletons_only(self):
        conflicts = [(0, 1), (0, 2), (1, 2)]
        instance = _instance(3, conflicts, 3, [0, 1, 2])
        sets = enumerate_admissible_sets(instance, instance.users[0])
        assert set(sets) == {(0,), (1,), (2,)}

    def test_zero_capacity_user_has_no_sets(self):
        instance = _instance(3, [], 0, [0, 1])
        assert enumerate_admissible_sets(instance, instance.users[0]) == []

    def test_no_bids_gives_no_sets(self):
        instance = _instance(3, [], 2, [])
        assert enumerate_admissible_sets(instance, instance.users[0]) == []

    def test_empty_set_is_not_included(self):
        instance = _instance(2, [], 2, [0])
        sets = enumerate_admissible_sets(instance, instance.users[0])
        assert () not in sets

    def test_sets_are_sorted_tuples(self):
        instance = _instance(4, [], 3, [3, 1, 2])
        sets = enumerate_admissible_sets(instance, instance.users[0])
        for s in sets:
            assert tuple(sorted(s)) == s

    def test_deterministic_order(self):
        instance = _instance(4, [(1, 2)], 3, [0, 1, 2, 3])
        first = enumerate_admissible_sets(instance, instance.users[0])
        second = enumerate_admissible_sets(instance, instance.users[0])
        assert first == second

    def test_downward_closure(self):
        """Every nonempty subset of an admissible set must be admissible."""
        instance = random_instance(seed=5, num_events=7, conflict_probability=0.4)
        for user in instance.users:
            sets = set(enumerate_admissible_sets(instance, user))
            for s in sets:
                for size in range(1, len(s)):
                    for subset in itertools.combinations(s, size):
                        assert subset in sets

    def test_matches_brute_force(self):
        instance = random_instance(seed=11, num_events=6, conflict_probability=0.5)
        for user in instance.users:
            enumerated = set(enumerate_admissible_sets(instance, user))
            brute = set()
            for size in range(1, user.capacity + 1):
                for combo in itertools.combinations(sorted(user.bids), size):
                    if is_admissible(instance, user, combo):
                        brute.add(combo)
            assert enumerated == brute


class TestExplosionGuard:
    def test_explosion_raises(self):
        # 16 mutually non-conflicting bids with capacity 16: 2^16 - 1 subsets.
        events = list(range(16))
        instance = _instance(16, [], 16, events)
        with pytest.raises(AdmissibleSetExplosion, match="user 0"):
            enumerate_admissible_sets(instance, instance.users[0], max_sets=1000)

    def test_cap_allows_exact_count(self):
        instance = _instance(3, [], 3, [0, 1, 2])
        # 7 nonempty subsets; cap of exactly 7 must not raise.
        sets = enumerate_admissible_sets(instance, instance.users[0], max_sets=7)
        assert len(sets) == 7


class TestEnumerateAll:
    def test_keyed_by_user(self):
        instance = tiny_instance()
        collections = enumerate_all_admissible_sets(instance)
        assert set(collections) == {10, 11, 12, 13}
        # user 10 bids (1, 2) which conflict; capacity 1 -> singletons.
        assert set(collections[10]) == {(1,), (2,)}
        # user 11 bids (1, 3), no conflict, capacity 2.
        assert set(collections[11]) == {(1,), (3,), (1, 3)}
        # user 13: single bid.
        assert collections[13] == [(3,)]


class TestIsAdmissible:
    def test_rejects_empty(self):
        instance = tiny_instance()
        assert not is_admissible(instance, instance.user_by_id[11], [])

    def test_rejects_over_capacity(self):
        instance = tiny_instance()
        user = instance.user_by_id[10]  # capacity 1
        assert not is_admissible(instance, user, [1, 2])

    def test_rejects_non_bid(self):
        instance = tiny_instance()
        assert not is_admissible(instance, instance.user_by_id[13], [1])

    def test_rejects_conflicting(self):
        instance = tiny_instance()
        user = instance.user_by_id[12]
        assert is_admissible(instance, user, [2, 3])
        # make 2, 3 conflict in a fresh instance to verify rejection
        from repro.model import MatrixConflict as MC

        conflicted = IGEPAInstance(
            instance.events,
            instance.users,
            MC([(2, 3)]),
            instance.interest,
            instance.social,
        )
        assert not is_admissible(conflicted, user, [2, 3])

    def test_rejects_duplicates(self):
        instance = tiny_instance()
        assert not is_admissible(instance, instance.user_by_id[11], [1, 1])

    def test_accepts_valid(self):
        instance = tiny_instance()
        assert is_admissible(instance, instance.user_by_id[11], [1, 3])
        assert is_admissible(instance, instance.user_by_id[11], [3])


# ----------------------------------------------------------------------
# The bitmask walk against the row-scan walk it replaced
# ----------------------------------------------------------------------
def _row_scan_sets(instance, user, max_sets):
    """The earlier enumeration: each extension scans σ rows over the
    chosen positions.  Raises like the real one, on the same set."""
    bids = sorted(user.bids)
    results = []
    if user.capacity == 0 or not bids:
        return results
    conflict = instance.index.conflict_matrix
    positions = [instance.index.event_pos[event_id] for event_id in bids]

    def extend(start, current, chosen):
        for offset in range(start, len(bids)):
            row = conflict[positions[offset]]
            if any(row[p] for p in chosen):
                continue
            current.append(bids[offset])
            chosen.append(positions[offset])
            results.append(tuple(current))
            if len(results) > max_sets:
                raise AdmissibleSetExplosion(user.user_id, max_sets)
            if len(current) < user.capacity:
                extend(offset + 1, current, chosen)
            current.pop()
            chosen.pop()

    extend(0, [], [])
    return results


@st.composite
def conflict_graphs(draw):
    """One user over a random conflict graph (event ids out of position
    order, bids in random order)."""
    num_events = draw(st.integers(min_value=1, max_value=70))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    event_ids = [int(e) for e in rng.permutation(num_events) * 5 + 2]
    density = draw(st.sampled_from((0.0, 0.1, 0.3, 0.7, 1.0)))
    conflicts = [
        pair for pair in itertools.combinations(event_ids, 2) if rng.random() < density
    ]
    count = draw(st.integers(min_value=0, max_value=min(12, num_events)))
    bids = tuple(int(e) for e in rng.permutation(event_ids)[:count])
    user = User(
        user_id=9, capacity=draw(st.integers(min_value=0, max_value=6)), bids=bids
    )
    instance = IGEPAInstance(
        [Event(event_id=e, capacity=1) for e in event_ids],
        [user],
        MatrixConflict(conflicts),
        TabulatedInterest({}, default=0.5),
        Graph(nodes=[9]),
    )
    return instance, user


class TestAgainstRowScan:
    @settings(max_examples=150, deadline=None)
    @given(conflict_graphs())
    def test_same_sets_in_the_same_order(self, graph):
        instance, user = graph
        cap = 10**6
        expected = _row_scan_sets(instance, user, cap)
        assert enumerate_admissible_sets(instance, user, cap) == expected

    @settings(max_examples=150, deadline=None)
    @given(conflict_graphs(), st.integers(min_value=0, max_value=300))
    def test_explosion_trips_on_the_same_set(self, graph, cap):
        """Both walks visit the same sets in the same order and raise right
        after appending set number ``cap + 1``: raising at exactly the same
        caps means they trip on the same set."""
        instance, user = graph
        total = len(_row_scan_sets(instance, user, 10**6))
        for max_sets in {cap, max(0, total - 1), total}:
            if max_sets < total:
                with pytest.raises(AdmissibleSetExplosion):
                    _row_scan_sets(instance, user, max_sets)
                with pytest.raises(AdmissibleSetExplosion, match="user 9"):
                    enumerate_admissible_sets(instance, user, max_sets)
            else:
                assert enumerate_admissible_sets(
                    instance, user, max_sets
                ) == _row_scan_sets(instance, user, max_sets)

    @settings(max_examples=100, deadline=None)
    @given(conflict_graphs())
    def test_scalar_probes_match_the_matrix(self, graph):
        """``is_admissible`` and ``bid_conflict_edges`` read the bitmasks;
        check them against σ read straight off the matrix."""
        instance, user = graph
        index = instance.index
        matrix = index.conflict_matrix
        pos = index.event_pos
        bids = user.bids
        assert instance.bid_conflict_edges(user) == [
            (a, b)
            for i, a in enumerate(bids)
            for b in bids[i + 1 :]
            if matrix[pos[a], pos[b]]
        ]
        for size in range(0, min(len(bids), 3) + 1):
            for combo in itertools.combinations(bids, size):
                positions = [pos[e] for e in combo]
                expected = (
                    0 < size <= user.capacity
                    and not matrix[np.ix_(positions, positions)].any()
                )
                assert is_admissible(instance, user, combo) == expected
                for a, b in itertools.combinations(combo, 2):
                    assert instance.conflicts(a, b) == bool(matrix[pos[a], pos[b]])


# ----------------------------------------------------------------------
# The batch walk against the recursive DFS reference
# ----------------------------------------------------------------------
@st.composite
def bid_batches(draw):
    """Several users over one random conflict graph: event ids out of
    position order, bids in random order, some users without bids or with
    capacity 0, some with more than 64 bids at capacity 1-2, some with room
    for sets of 5 or more events; and the order to enumerate them in."""
    num_events = draw(st.integers(min_value=1, max_value=90))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    event_ids = [int(e) for e in rng.permutation(num_events) * 3 + 1]
    density = draw(st.sampled_from((0.0, 0.05, 0.3, 0.7, 1.0)))
    conflicts = [
        pair for pair in itertools.combinations(event_ids, 2) if rng.random() < density
    ]
    users = []
    for user_id in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(("small", "wide", "deep")))
        if kind == "wide":
            count = draw(st.integers(min_value=0, max_value=num_events))
            capacity = draw(st.integers(min_value=0, max_value=2))
        elif kind == "deep":
            count = draw(st.integers(min_value=0, max_value=min(10, num_events)))
            capacity = draw(st.integers(min_value=5, max_value=7))
        else:
            count = draw(st.integers(min_value=0, max_value=min(8, num_events)))
            capacity = draw(st.integers(min_value=0, max_value=4))
        bids = tuple(int(e) for e in rng.permutation(event_ids)[:count])
        users.append(User(user_id=100 + user_id, capacity=capacity, bids=bids))
    instance = IGEPAInstance(
        [Event(event_id=e, capacity=1) for e in event_ids],
        users,
        MatrixConflict(conflicts),
        TabulatedInterest({}, default=0.5),
        Graph(nodes=[u.user_id for u in users]),
    )
    order = draw(st.permutations(range(len(users))))
    return instance, np.array(order, dtype=np.int64)


def _reference(instance, upos, max_sets):
    index = instance.index
    return [
        dfs_admissible_sets(
            index,
            instance.users[p].user_id,
            instance.users[p].bids,
            instance.users[p].capacity,
            max_sets,
        )
        for p in upos.tolist()
    ]


class TestBatchAgainstDFS:
    @settings(max_examples=200, deadline=None)
    @given(bid_batches())
    def test_same_sets_in_the_same_order(self, batch):
        instance, upos = batch
        index = instance.index
        expected = _reference(instance, upos, 10**7)
        sets = enumerate_admissible_batch(index, upos, max_sets=10**7)
        assert split_sets(sets, index) == expected
        # The flat arrays agree with the tuples they spell.
        assert sets.counts.tolist() == [len(collection) for collection in expected]
        assert sets.upos.tolist() == [
            int(p) for p, collection in zip(upos, expected) for _ in collection
        ]
        assert sets.vpos.tolist() == [
            index.event_pos[e]
            for collection in expected
            for events in collection
            for e in events
        ]
        assert np.array_equal(index.bid_indices[sets.bids], sets.vpos)
        member_upos = np.repeat(sets.upos, np.diff(sets.indptr))
        assert np.array_equal(index.bid_user_positions[sets.bids], member_upos)
        # One-user calls run the same walk.
        for p, collection in zip(upos.tolist(), expected):
            assert enumerate_admissible_sets(instance, instance.users[p]) == collection

    @settings(max_examples=200, deadline=None)
    @given(bid_batches(), st.integers(min_value=0, max_value=400))
    def test_explosion_names_the_same_user(self, batch, cap):
        """The walk raises for the first user, in the given order, whose
        collection the DFS also overflows: the cap is drawn and also set
        just below and at each user's own count."""
        instance, upos = batch
        totals = [len(c) for c in _reference(instance, upos, 10**7)]
        for max_sets in {cap, *totals, *(max(0, t - 1) for t in totals)}:
            culprit = next(
                (k for k, total in enumerate(totals) if total > max_sets), None
            )
            if culprit is None:
                sets = enumerate_admissible_batch(instance.index, upos, max_sets)
                assert sets.counts.tolist() == totals
                continue
            user_id = instance.users[int(upos[culprit])].user_id
            with pytest.raises(AdmissibleSetExplosion) as dfs_error:
                _reference(instance, upos, max_sets)
            assert dfs_error.value.user_id == user_id
            with pytest.raises(AdmissibleSetExplosion) as error:
                enumerate_admissible_batch(instance.index, upos, max_sets)
            assert error.value.user_id == user_id
            assert error.value.cap == max_sets

    def test_sets_of_five_and_more(self):
        instance = _instance(9, [(0, 8)], 6, list(range(9)))
        sets = enumerate_admissible_sets(instance, instance.users[0])
        expected = dfs_admissible_sets(
            instance.index, 0, instance.users[0].bids, 6, 10**6
        )
        assert sets == expected
        assert max(map(len, sets)) == 6

    def test_every_user_by_default(self):
        instance = random_instance(seed=3, num_events=9, conflict_probability=0.3)
        sets = enumerate_admissible_batch(instance.index)
        assert sets.counts.size == len(instance.users)
        assert split_sets(sets, instance.index) == [
            dfs_admissible_sets(instance.index, u.user_id, u.bids, u.capacity, 10**6)
            for u in instance.users
        ]
