"""Unit tests for the local-search improvement layer.

The differential tests at the end check the worklist search against the
list-based rescan (kept below as the reference), which scans the whole
scope on every pass: the same move counts pass by pass and the same final
pairs, on feasible arrangements and on bid-pair arrangements pushed over
capacity or into conflicts (every arrangement holds only bid pairs), full
and scoped searches, dense and sharded indexes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ExactILP,
    GGGreedy,
    LocalSearch,
    LPPacking,
    RandomU,
    improve,
    lp_upper_bound,
)
from repro.core.local_search import (
    _MIN_GAIN,
    _SearchState,
    _try_add_moves,
    _try_evict_moves,
    _try_upgrade_moves,
    iter_passes,
)
from repro.model import Arrangement, Event, IGEPAInstance, MatrixConflict, TabulatedInterest, User
from repro.social import Graph, erdos_renyi_graph
from tests.util import random_instance, tiny_instance


def _two_event_instance():
    """User 1 sits on a light event while a heavy one has room."""
    events = [Event(event_id=1, capacity=1), Event(event_id=2, capacity=1)]
    users = [User(user_id=1, capacity=1, bids=(1, 2))]
    return IGEPAInstance(
        events,
        users,
        MatrixConflict([]),
        TabulatedInterest({(1, 1): 0.2, (2, 1): 0.9}),
        Graph(nodes=[1]),
    )


class TestMoves:
    def test_add_move_fills_gaps(self):
        instance = tiny_instance()
        arrangement = Arrangement(instance)  # empty
        moves = improve(instance, arrangement)
        assert moves["adds"] > 0
        assert arrangement.is_feasible()
        assert len(arrangement) > 0

    def test_upgrade_move_swaps_to_heavier_event(self):
        instance = _two_event_instance()
        arrangement = Arrangement.from_pairs(instance, [(1, 1)])
        before = arrangement.utility()
        moves = improve(instance, arrangement)
        assert moves["upgrades"] >= 1
        assert arrangement.pairs == {(2, 1)}
        assert arrangement.utility() > before

    def test_evict_move_replaces_lightest_attendee(self):
        events = [Event(event_id=1, capacity=1)]
        users = [
            User(user_id=1, capacity=1, bids=(1,)),
            User(user_id=2, capacity=1, bids=(1,)),
        ]
        instance = IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest({(1, 1): 0.1, (1, 2): 0.9}),
            Graph(nodes=[1, 2]),
        )
        arrangement = Arrangement.from_pairs(instance, [(1, 1)])
        moves = improve(instance, arrangement)
        assert moves["evictions"] == 1
        assert arrangement.pairs == {(1, 2)}

    def test_local_optimum_reached_and_stable(self):
        instance = random_instance(seed=3)
        arrangement = RandomU().solve(instance, seed=0).arrangement
        improve(instance, arrangement)
        again = improve(instance, arrangement)
        assert again["adds"] == again["upgrades"] == again["evictions"] == 0
        assert again["passes"] == 1

    def test_never_decreases_utility(self):
        for seed in range(5):
            instance = random_instance(seed=seed)
            arrangement = RandomU().solve(instance, seed=seed).arrangement
            before = arrangement.utility()
            improve(instance, arrangement)
            assert arrangement.utility() >= before - 1e-9
            assert arrangement.is_feasible()


class TestLocalSearchWrapper:
    def test_name_decoration(self):
        assert LocalSearch(RandomU()).name == "random-u+ls"
        assert LocalSearch(LPPacking()).name == "lp-packing+ls"

    def test_improves_random_baseline(self):
        instance = random_instance(seed=7, num_users=25, num_events=8)
        base = RandomU().solve(instance, seed=0).utility
        improved = LocalSearch(RandomU()).solve(instance, seed=0)
        assert improved.utility >= base - 1e-9
        assert improved.arrangement.is_feasible()
        assert improved.details["base_algorithm"] == "random-u"
        assert improved.details["base_utility"] <= improved.utility + 1e-9

    def test_respects_lp_bound(self):
        instance = random_instance(seed=8)
        bound = lp_upper_bound(instance)
        result = LocalSearch(GGGreedy()).solve(instance, seed=0)
        assert result.utility <= bound + 1e-7

    def test_cannot_beat_exact(self):
        instance = random_instance(seed=9, num_events=5, num_users=8)
        optimum = ExactILP().solve(instance).utility
        result = LocalSearch(LPPacking()).solve(instance, seed=0)
        assert result.utility <= optimum + 1e-7

    def test_narrows_gap_to_optimum(self):
        """Across seeds, local search must lift RandomU's mean utility."""
        import numpy as np

        instance = random_instance(seed=10, num_users=30, num_events=10)
        raw = np.mean(
            [RandomU().solve(instance, seed=s).utility for s in range(10)]
        )
        polished = np.mean(
            [LocalSearch(RandomU()).solve(instance, seed=s).utility for s in range(10)]
        )
        assert polished > raw


def _unit_instance(events, users, interest, conflicts=()):
    """Events and users as ``{id: capacity}`` and ``{id: (capacity,
    bids)}``; ``interest`` maps ``(event, user)`` to SI."""
    return IGEPAInstance(
        [Event(event_id=e, capacity=c) for e, c in events.items()],
        [User(user_id=u, capacity=c, bids=b) for u, (c, b) in users.items()],
        MatrixConflict(list(conflicts)),
        TabulatedInterest(interest),
        Graph(nodes=list(users)),
    )


def _freed_seat_case():
    """Pass 1 evicts user 1 from event 3 (user 3 is heavier there), which
    ends user 1's overload and the conflict blocking their upgrade 1 -> 2.
    In pass 2's upgrade scan that swap frees event 1's seat, and user 2 —
    later in the scan and on no worklist when it started — upgrades 4 -> 1
    in the same scan."""
    instance = _unit_instance(
        events={1: 1, 2: 1, 3: 1, 4: 1},
        users={1: (1, (1, 2, 3)), 2: (1, (4, 1)), 3: (1, (3,))},
        interest={
            (1, 1): 0.8, (2, 1): 0.9, (3, 1): 0.1,
            (4, 2): 0.3, (1, 2): 0.6,
            (3, 3): 0.5,
        },
        conflicts=[(2, 3)],
    )
    return instance, [(1, 1), (3, 1), (4, 2)]


def _lowered_load_case():
    """Pass 1 evicts user 3 from event 3 (user 4 is heavier there).  In
    pass 2's evict scan user 3 takes event 1 from user 1, and user 1, freed,
    takes event 2 from user 2 in the same scan, though event 2 was on no
    worklist when it started."""
    instance = _unit_instance(
        events={1: 1, 2: 1, 3: 1},
        users={1: (1, (1, 2)), 2: (1, (2,)), 3: (1, (1, 3)), 4: (1, (3,))},
        interest={
            (1, 1): 0.2, (2, 1): 0.9,
            (2, 2): 0.1,
            (1, 3): 0.7, (3, 3): 0.3,
            (3, 4): 0.8,
        },
    )
    return instance, [(1, 1), (2, 2), (3, 3)]


def _loosened_conflict_case():
    """User 2's pass-1 swap 2 -> 3 opens event 2, so in pass 2 user 1
    swaps 1 -> 2 (event 2 conflicts with event 1, which blocks adding it).
    That frees user 1 of event 1's conflict with event 4, so pass 2's
    evict scan seats them at event 4 over user 3, though no move touched
    event 4 itself."""
    instance = _unit_instance(
        events={1: 1, 2: 1, 3: 1, 4: 1},
        users={1: (2, (1, 2, 4)), 2: (1, (2, 3)), 3: (1, (4,))},
        interest={
            (1, 1): 0.2, (2, 1): 0.5, (4, 1): 0.9,
            (2, 2): 0.3, (3, 2): 0.8,
            (4, 3): 0.1,
        },
        conflicts=[(1, 2), (1, 4)],
    )
    return instance, [(1, 1), (2, 2), (4, 3)]


def _own_conflict_case():
    """User 1 swaps 1 -> 2 in pass 1 (both conflict with event 1, which
    blocks adding them).  Event 1 had a free seat already, so the swap
    opens none; but it frees user 1 of event 1's conflict with event 3,
    which user 1 adds in pass 2."""
    instance = _unit_instance(
        events={1: 2, 2: 1, 3: 1},
        users={1: (2, (1, 2, 3))},
        interest={(1, 1): 0.2, (2, 1): 0.5, (3, 1): 0.4},
        conflicts=[(1, 2), (1, 3)],
    )
    return instance, [(1, 1)]


def _no_moves(**counts):
    return {"adds": 0, "refills": 0, "upgrades": 0, "evictions": 0, **counts}


#: Hand-built searches whose later passes need a particular mark: case
#: builder, counts pass by pass, final pairs.
_MARKED_SEARCHES = {
    "swap-frees-seat-same-scan": (
        _freed_seat_case,
        [_no_moves(evictions=1), _no_moves(upgrades=2), _no_moves()],
        {(2, 1), (3, 3), (1, 2)},
    ),
    "eviction-frees-user-same-scan": (
        _lowered_load_case,
        [_no_moves(evictions=1), _no_moves(evictions=2), _no_moves()],
        {(1, 3), (2, 1), (3, 4)},
    ),
    "swap-loosens-conflict-for-eviction": (
        _loosened_conflict_case,
        [_no_moves(upgrades=1), _no_moves(upgrades=1, evictions=1), _no_moves()],
        {(2, 1), (4, 1), (3, 2)},
    ),
    "swap-loosens-own-conflict-for-add": (
        _own_conflict_case,
        [_no_moves(upgrades=1), _no_moves(adds=1), _no_moves()],
        {(2, 1), (3, 1)},
    ),
}


class TestWorklists:
    """Later passes visit only what earlier moves marked, picking up marks
    ahead of a running scan's cursor in the same pass."""

    @pytest.mark.parametrize("name", list(_MARKED_SEARCHES))
    def test_marked_search_matches_rescan(self, name):
        case, expected_passes, expected_pairs = _MARKED_SEARCHES[name]
        instance, pairs = case()
        assert _assert_same_search(instance, pairs) == expected_passes
        arrangement = Arrangement.from_pairs(instance, pairs, check=False)
        improve(instance, arrangement)
        assert arrangement.pairs == expected_pairs

    @pytest.mark.parametrize("case", [_freed_seat_case, _lowered_load_case])
    def test_pass_cap_with_moves_left(self, case):
        instance, pairs = case()
        passes = _assert_same_search(instance, pairs, max_passes=1)
        assert passes == [_no_moves(evictions=1)]
        arrangement = Arrangement.from_pairs(instance, pairs, check=False)
        assert improve(instance, arrangement, max_passes=1)["passes"] == 1
        # The moves left are found by a fresh search.
        assert sum(improve(instance, arrangement, max_passes=1).values()) > 1

    def test_scoped_search_drops_marks_outside_the_scope(self):
        """A scope of user 1 and event 3 only: user 2's upgrade, which the
        full search makes after user 1's swap, is never made."""
        instance, pairs = _freed_seat_case()
        index = instance.index
        scope = {
            "user_positions": [index.user_pos[1]],
            "event_positions": [index.event_pos[3]],
            "refill_events": True,
        }
        _assert_same_search(instance, pairs, **scope)
        arrangement = Arrangement.from_pairs(instance, pairs, check=False)
        improve(instance, arrangement, **scope)
        assert arrangement.pairs == {(2, 1), (3, 3), (4, 2)}


# ----------------------------------------------------------------------
# The list-based search (the reference)
# ----------------------------------------------------------------------

class _RefSearchState:
    """The list-based search state: conflict rows unpacked per call."""

    def __init__(
        self,
        instance,
        arrangement,
        user_scope=None,
    ):
        index = instance.index
        self.instance = instance
        self.arrangement = arrangement
        self.index = index
        self.user_ids = index.user_ids.tolist()
        self.event_ids = index.event_ids.tolist()
        self.user_cap = index.user_capacity.tolist()
        self.event_cap = index.event_capacity.tolist()
        if user_scope is None:
            indptr = index.bid_indptr.tolist()
            positions = index.bid_indices.tolist()
            weights = index.bid_weights.tolist()
            self.user_bid_positions = [
                positions[indptr[i] : indptr[i + 1]] for i in range(index.num_users)
            ]
            self.user_bid_weights = [
                weights[indptr[i] : indptr[i + 1]] for i in range(index.num_users)
            ]
        else:
            indptr = index.bid_indptr
            self.user_bid_positions = {
                i: index.bid_indices[indptr[i] : indptr[i + 1]].tolist()
                for i in user_scope
            }
            self.user_bid_weights = {
                i: index.bid_weights[indptr[i] : indptr[i + 1]].tolist()
                for i in user_scope
            }
        self.conflict_rows = index.conflict_matrix.tolist()
        # Mirrors of the arrangement counters, updated at each accepted move.
        self.attendance = arrangement.attendance_counts.tolist()
        self.load = arrangement.load_counts.tolist()

    def pair_weight(self, upos, vpos):
        """``w(u, v)`` of an assigned (hence bid) pair."""
        return self.index.weight_at(upos, vpos)

    def apply_add(self, upos, vpos):
        self.arrangement.add(self.event_ids[vpos], self.user_ids[upos], check=False)
        self.attendance[vpos] += 1
        self.load[upos] += 1

    def apply_swap(self, upos, old_vpos, new_vpos):
        user_id = self.user_ids[upos]
        self.arrangement.remove(self.event_ids[old_vpos], user_id)
        self.arrangement.add(self.event_ids[new_vpos], user_id, check=False)
        self.attendance[old_vpos] -= 1
        self.attendance[new_vpos] += 1

    def apply_evict(self, vpos, out_upos, in_upos):
        event_id = self.event_ids[vpos]
        self.arrangement.remove(event_id, self.user_ids[out_upos])
        self.arrangement.add(event_id, self.user_ids[in_upos], check=False)
        self.load[out_upos] -= 1
        self.load[in_upos] += 1


def _events_held(arrangement, upos):
    """The user position's event positions, ascending, read through
    ``assigned_positions()`` — current after every move."""
    users, events = arrangement.assigned_positions()
    return events[users == upos].tolist()


def _attendees(arrangement, vpos):
    """The event position's user positions, ascending, read through
    ``assigned_positions()`` — current after every move."""
    users, events = arrangement.assigned_positions()
    return users[events == vpos].tolist()


def ref_try_add_moves(state, user_scan):
    arrangement = state.arrangement
    attendance = state.attendance
    load = state.load
    event_cap = state.event_cap
    conflict_rows = state.conflict_rows
    accepted = 0
    for upos in user_scan:
        capacity = state.user_cap[upos]
        if load[upos] >= capacity:
            continue
        weights = state.user_bid_weights[upos]
        for offset, vpos in enumerate(state.user_bid_positions[upos]):
            if load[upos] >= capacity:
                break
            assigned = _events_held(arrangement, upos)
            if weights[offset] <= _MIN_GAIN:
                continue
            if vpos in assigned:
                continue
            if attendance[vpos] >= event_cap[vpos]:
                continue
            row = conflict_rows[vpos]
            if any(row[p] for p in assigned):
                continue
            state.apply_add(upos, vpos)
            accepted += 1
    return accepted


def ref_try_refill_moves(state, event_scan):
    arrangement = state.arrangement
    index = state.index
    attendance = state.attendance
    load = state.load
    conflict_rows = state.conflict_rows
    accepted = 0
    for vpos in event_scan:
        capacity = state.event_cap[vpos]
        if attendance[vpos] >= capacity:
            continue
        attendees = _attendees(arrangement, vpos)
        bidder_weights = index.event_bidder_weights(vpos).tolist()
        row = conflict_rows[vpos]
        for offset, bidder in enumerate(index.event_bidder_positions(vpos).tolist()):
            if attendance[vpos] >= capacity:
                break
            if bidder in attendees:
                continue
            if bidder_weights[offset] <= _MIN_GAIN:
                continue
            if load[bidder] >= state.user_cap[bidder]:
                continue
            if any(row[p] for p in _events_held(arrangement, bidder)):
                continue
            state.apply_add(bidder, vpos)
            accepted += 1
    return accepted


def ref_try_upgrade_moves(state, user_scan):
    arrangement = state.arrangement
    attendance = state.attendance
    event_cap = state.event_cap
    conflict_rows = state.conflict_rows
    event_ids = state.event_ids
    accepted = 0
    for upos in user_scan:
        assigned = _events_held(arrangement, upos)
        if not assigned:
            continue
        if state.load[upos] - 1 >= state.user_cap[upos]:
            continue  # overloaded user: no swap can be feasible
        # Scan in event-id order, as the scalar pass did.
        snapshot = sorted(assigned, key=event_ids.__getitem__)
        bids = state.user_bid_positions[upos]
        weights = state.user_bid_weights[upos]
        for current in snapshot:
            assigned = _events_held(arrangement, upos)
            current_weight = state.pair_weight(upos, current)
            best = None
            best_gain = _MIN_GAIN
            others = [p for p in assigned if p != current]
            for offset, candidate in enumerate(bids):
                gain = weights[offset] - current_weight
                if gain <= best_gain:
                    continue
                if candidate in assigned:
                    continue
                if attendance[candidate] >= event_cap[candidate]:
                    continue
                row = conflict_rows[candidate]
                if any(row[p] for p in others):
                    continue
                best = candidate
                best_gain = gain
            if best is not None:
                state.apply_swap(upos, current, best)
                accepted += 1
    return accepted


def ref_try_evict_moves(state, event_scan):
    """The per-event vectorized evict scan."""
    arrangement = state.arrangement
    index = state.index
    conflict_rows = state.conflict_rows
    load = arrangement.load_counts
    user_capacity = index.user_capacity
    user_ids = index.user_ids
    # Per-event attendee groups from one pass over the pairs: grouping once
    # is O(pairs).  An eviction only rewrites its own event's column, and no
    # event repeats within a pass, so the snapshot stays exact for every
    # event still to scan.
    pair_rows, pair_cols = arrangement.assigned_positions()
    order = np.argsort(pair_cols, kind="stable")
    grouped_rows = pair_rows[order]
    boundaries = np.searchsorted(pair_cols[order], np.arange(index.num_events + 1))
    accepted = 0
    for vpos in event_scan:
        if state.attendance[vpos] < state.event_cap[vpos]:
            continue  # not full: add moves already cover it
        if state.attendance[vpos] - 1 >= state.event_cap[vpos]:
            continue  # over capacity: even after an eviction the event is full
        attendees = grouped_rows[boundaries[vpos] : boundaries[vpos + 1]]
        if not attendees.size:
            continue
        weights = index.pair_weights(attendees, vpos)
        order = np.lexsort((user_ids[attendees], weights))
        lightest = int(attendees[order[0]])
        lightest_weight = float(weights[order[0]])

        bidders = index.event_bidder_positions(vpos)
        gains = index.event_bidder_weights(vpos) - lightest_weight
        mask = (
            (gains > _MIN_GAIN)
            & ~np.isin(bidders, _attendees(arrangement, vpos))
            & (load[bidders] < user_capacity[bidders])
        )
        candidates = bidders[mask]
        if not candidates.size:
            continue
        row = conflict_rows[vpos]
        # Stable descending-gain order: the first conflict-feasible probe is
        # the first maximum-feasible-gain bidder of the scalar scan.
        for k in np.argsort(-gains[mask], kind="stable").tolist():
            bidder = int(candidates[k])
            if any(row[p] for p in _events_held(arrangement, bidder)):
                continue
            state.apply_evict(vpos, lightest, bidder)
            accepted += 1
            break
    return accepted


def ref_try_evict_moves_scalar(state, event_scan):
    """The scalar evict scan."""
    arrangement = state.arrangement
    index = state.index
    conflict_rows = state.conflict_rows
    accepted = 0
    for vpos in event_scan:
        if state.attendance[vpos] < state.event_cap[vpos]:
            continue  # not full: add moves already cover it
        if state.attendance[vpos] - 1 >= state.event_cap[vpos]:
            continue  # over capacity: even after an eviction the event is full
        attendees = _attendees(arrangement, vpos)
        if not attendees:
            continue
        # min by (weight, user_id), as the scalar scan ordered it.
        lightest, lightest_weight = min(
            ((u, state.pair_weight(u, vpos)) for u in attendees),
            key=lambda item: (item[1], state.user_ids[item[0]]),
        )
        column = index.weight_column(vpos)
        best = None
        best_gain = _MIN_GAIN
        for bidder in index.event_bidder_positions(vpos).tolist():
            if bidder in attendees:
                continue
            gain = float(column[bidder]) - lightest_weight
            if gain <= best_gain:
                continue
            if state.load[bidder] >= state.user_cap[bidder]:
                continue
            row = conflict_rows[vpos]
            if any(row[p] for p in _events_held(arrangement, bidder)):
                continue
            best = bidder
            best_gain = gain
        if best is not None:
            state.apply_evict(vpos, lightest, best)
            accepted += 1
    return accepted


def ref_improve(
    instance,
    arrangement,
    max_passes=20,
    user_positions=None,
    event_positions=None,
    refill_events=False,
    evict_scan=ref_try_evict_moves,
):
    """The rescan: every pass scans the whole scope.  Returns the totals
    (as :func:`improve` does) and each pass's counts (as
    :func:`iter_passes` yields them).  ``evict_scan`` picks the evict
    reference; the scalar one reads attendees live, so it also covers
    repeated event positions."""
    user_scan = (
        range(instance.index.num_users)
        if user_positions is None
        else sorted(user_positions)
    )
    state = _RefSearchState(
        instance,
        arrangement,
        user_scope=None if user_positions is None else user_scan,
    )
    event_scan = (
        range(instance.index.num_events)
        if event_positions is None
        else sorted(event_positions)
    )
    totals = {"adds": 0, "refills": 0, "upgrades": 0, "evictions": 0, "passes": 0}
    passes = []
    for _ in range(max_passes):
        counts = {
            "adds": ref_try_add_moves(state, user_scan),
            "refills": (
                ref_try_refill_moves(state, event_scan) if refill_events else 0
            ),
            "upgrades": ref_try_upgrade_moves(state, user_scan),
            "evictions": evict_scan(state, event_scan),
        }
        passes.append(counts)
        for key, count in counts.items():
            totals[key] += count
        totals["passes"] += 1
        if not any(counts.values()):
            break
    return totals, passes


# ----------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------
#: Interest values with many exact ties, so tie-breaking is exercised.
_TIED_VALUES = (0.0, 0.25, 0.5, 1.0)


@st.composite
def search_cases(draw):
    """A random instance (dense or sharded index), a feasible
    arrangement on it as sorted pairs, and the RNG for further draws."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    num_events = draw(st.integers(min_value=1, max_value=12))
    num_users = draw(st.integers(min_value=1, max_value=30))
    tied = draw(st.booleans())
    event_ids = [3 * e + 1 for e in range(num_events)]
    # User ids run against position order, so (w, user_id) ties matter.
    user_ids = [1000 - 7 * u for u in range(num_users)]
    events = [
        Event(event_id=e, capacity=int(rng.integers(0, 4))) for e in event_ids
    ]
    users = []
    interest = {}
    for u in user_ids:
        count = int(rng.integers(0, min(5, num_events) + 1))
        bids = tuple(int(b) for b in rng.permutation(event_ids)[:count])
        users.append(User(user_id=u, capacity=int(rng.integers(0, 4)), bids=bids))
        for b in bids:
            interest[(b, u)] = (
                float(rng.choice(_TIED_VALUES)) if tied else float(rng.uniform())
            )
    conflict = MatrixConflict.sample(
        event_ids, float(draw(st.sampled_from((0.0, 0.2, 0.5)))), rng
    )
    instance = IGEPAInstance(
        events=events,
        users=users,
        conflict=conflict,
        interest=TabulatedInterest(interest),
        social=erdos_renyi_graph(user_ids, 0.3, rng=rng),
        beta=float(draw(st.sampled_from((0.0, 0.5, 1.0)))),
    )
    if draw(st.booleans()):
        instance.configure_index(sharded=True)
    arrangement = Arrangement(instance)
    bid_pairs = [(e, user.user_id) for user in users for e in user.bids]
    for k in rng.permutation(len(bid_pairs)).tolist():
        if rng.random() < 0.6 and arrangement.can_add(*bid_pairs[k]):
            arrangement.add(*bid_pairs[k], check=False)
    return instance, sorted(arrangement.pairs), rng


def _unchecked_extras(instance, rng, count):
    """Random bid pairs added past the capacity and conflict checks: full
    events and users over capacity, conflicting events."""
    bid_pairs = [(e, user.user_id) for user in instance.users for e in user.bids]
    if not bid_pairs:
        return []
    return [bid_pairs[k] for k in rng.integers(len(bid_pairs), size=count).tolist()]


def _copies(instance, pairs):
    return (
        Arrangement.from_pairs(instance, pairs, check=False),
        Arrangement.from_pairs(instance, pairs, check=False),
    )


def _assert_same_search(instance, pairs, evict_scan=ref_try_evict_moves, **kwargs):
    """Same counts pass by pass, same totals and same final pairs as the
    rescan."""
    reference, drained = _copies(instance, pairs)
    expected, expected_passes = ref_improve(
        instance, reference, evict_scan=evict_scan, **kwargs
    )
    assert list(iter_passes(instance, drained, **kwargs)) == expected_passes
    assert sorted(drained.pairs) == sorted(reference.pairs)
    improved = Arrangement.from_pairs(instance, pairs, check=False)
    assert improve(instance, improved, **kwargs) == expected
    assert sorted(improved.pairs) == sorted(reference.pairs)
    return expected_passes


def _check_scoped_search(case, unchecked, max_passes):
    instance, pairs, rng = case
    if unchecked:
        pairs = sorted(set(pairs) | set(_unchecked_extras(instance, rng, 4)))
    index = instance.index
    # Positions drawn with repeats: scans visit a repeated user twice.
    users = rng.integers(0, index.num_users, size=index.num_users // 2 + 1)
    events = rng.integers(0, index.num_events, size=index.num_events // 2 + 1)
    _assert_same_search(
        instance,
        pairs,
        max_passes=max_passes,
        user_positions=users.tolist(),
        event_positions=sorted(set(events.tolist())),
        refill_events=True,
    )


class TestAgainstListSearch:
    @settings(max_examples=80, deadline=None)
    @given(search_cases())
    def test_clean_full_scope(self, case):
        instance, pairs, _rng = case
        _assert_same_search(instance, pairs)

    @settings(max_examples=80, deadline=None)
    @given(search_cases(), st.integers(min_value=1, max_value=12))
    def test_unchecked_pairs_full_scope(self, case, extras):
        """Over-capacity events and users, conflicting events."""
        instance, pairs, rng = case
        pairs = sorted(set(pairs) | set(_unchecked_extras(instance, rng, extras)))
        _assert_same_search(instance, pairs)

    @settings(max_examples=80, deadline=None)
    @given(search_cases(), st.booleans(), st.integers(min_value=1, max_value=3))
    def test_scoped_repair_with_refill(self, case, unchecked, max_passes):
        _check_scoped_search(case, unchecked, max_passes)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(search_cases(), st.booleans(), st.integers(min_value=1, max_value=20))
    def test_scoped_repair_with_refill_many(self, case, unchecked, max_passes):
        _check_scoped_search(case, unchecked, max_passes)

    @settings(max_examples=60, deadline=None)
    @given(search_cases(), st.booleans())
    def test_repeated_event_positions(self, case, unchecked):
        """A repeated event is visited once per repeat, against attendees
        read live (the scalar evict reference)."""
        instance, pairs, rng = case
        if unchecked:
            pairs = sorted(set(pairs) | set(_unchecked_extras(instance, rng, 4)))
        index = instance.index
        users = rng.integers(0, index.num_users, size=index.num_users // 2 + 1)
        events = rng.integers(0, index.num_events, size=index.num_events + 2)
        _assert_same_search(
            instance,
            pairs,
            evict_scan=ref_try_evict_moves_scalar,
            user_positions=users.tolist(),
            event_positions=events.tolist(),
            refill_events=True,
        )

    @settings(max_examples=60, deadline=None)
    @given(search_cases())
    def test_event_side_only_scope(self, case):
        """An event-side-only scope: no users, some events."""
        instance, pairs, rng = case
        events = rng.integers(0, instance.index.num_events, size=3)
        _assert_same_search(
            instance,
            pairs,
            max_passes=1,
            user_positions=[],
            event_positions=sorted(set(events.tolist())),
            refill_events=True,
        )

    @settings(max_examples=80, deadline=None)
    @given(search_cases())
    def test_batched_clean_evict_matches_scalar_scan(self, case):
        instance, pairs, rng = case
        batched, scalar = _copies(instance, pairs)
        events = range(instance.index.num_events)
        if rng.random() < 0.5:
            events = sorted(set(rng.integers(0, len(events), size=4).tolist()))
        moved = _try_evict_moves(_SearchState(instance, batched, event_scope=events))
        assert moved == ref_try_evict_moves_scalar(
            _RefSearchState(instance, scalar), events
        )
        assert sorted(batched.pairs) == sorted(scalar.pairs)

    @settings(max_examples=40, deadline=None)
    @given(search_cases(), st.integers(min_value=0, max_value=4))
    def test_draining_iter_passes_equals_improve(self, case, max_passes):
        instance, pairs, _rng = case
        drained, improved = _copies(instance, pairs)
        passes = list(iter_passes(instance, drained, max_passes=max_passes))
        totals = improve(instance, improved, max_passes=max_passes)
        assert len(passes) == totals["passes"]
        for key in ("adds", "refills", "upgrades", "evictions"):
            assert sum(counts[key] for counts in passes) == totals[key]
        assert sorted(drained.pairs) == sorted(improved.pairs)

    def test_iter_passes_stops_after_the_first_idle_pass(self):
        instance = random_instance(seed=3)
        arrangement = RandomU().solve(instance, seed=0).arrangement
        passes = list(iter_passes(instance, arrangement))
        assert all(sum(counts.values()) for counts in passes[:-1])
        assert sum(passes[-1].values()) == 0

    def test_search_state_follows_moves(self):
        instance = random_instance(seed=5, num_users=20, num_events=8)
        arrangement = RandomU().solve(instance, seed=1).arrangement
        state = _SearchState(instance, arrangement)
        users = range(instance.index.num_users)
        events = range(instance.index.num_events)
        for upos in users:
            state.bits_of(upos)  # every mask cached before the moves
        moved = (
            _try_add_moves(state)
            + _try_upgrade_moves(state)
            + _try_evict_moves(state)
        )
        assert moved
        for upos in users:
            assert state.bits_of(upos) == sum(
                1 << p for p in _events_held(arrangement, upos)
            )
        assert state.attendance == arrangement.attendance_counts.tolist()
        assert state.load == arrangement.load_counts.tolist()
