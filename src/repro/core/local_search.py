"""Local-search post-processing for arrangements.

Not part of the paper's algorithm, but a natural improvement layer a
production EBSN platform would bolt on: take any feasible arrangement and
apply utility-increasing moves until a local optimum.  Three move types:

* **add** — insert a feasible missing (event, user) pair (weights are
  nonnegative, so additions never hurt);
* **upgrade** — replace one of a user's assigned events with a strictly
  heavier bid of theirs that is feasible after the swap;
* **evict** — at a full event, replace its lightest attendee with a heavier
  waiting bidder (the evicted user keeps their other events).

Each accepted move raises the utility by at least ``min_gain``, so the
search terminates; a pass cap bounds the worst case.  Wrapped as
:class:`LocalSearch`, it composes with any base algorithm::

    LocalSearch(RandomU()).solve(instance)   # name: "random-u+ls"

The move scans run on a :class:`_SearchState`: capacities and live
attendance/load mirrors as plain Python lists, plus one bitmask per user of
the event positions they attend.  Every feasibility probe is
``conflict_bits[v] & mask`` against the index's per-event conflict bitmasks
(:attr:`~repro.model.index.BaseInstanceIndex.conflict_bits`), one integer
operation however many events the user attends.  Each scan first screens
all of its candidates in one NumPy batch against the state at the start of
the scan, and only the survivors are probed live, in scan order; the evict
scan also computes every full event's lightest attendee and candidate order
in that batch.  Selection order is unchanged:
first feasible bid in bid order (add), first maximum feasible gain in bid
order (upgrade) or bidder order (evict).

:func:`iter_passes` yields each pass's move counts from one search state,
so a caller that stops between passes (the serving loop's cancellable
defrag) keeps the state for the whole search; :func:`improve` drains it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.base import ArrangementAlgorithm
from repro.model.arrangement import Arrangement
from repro.model.index import mask_positions, word_positions
from repro.model.instance import IGEPAInstance

_MIN_GAIN = 1e-9
_MOVE_KEYS = ("adds", "refills", "upgrades", "evictions")


class _SearchState:
    """The search's view of one arrangement, kept in step with every move.

    Holds ids, capacities and live attendance/load mirrors as Python lists,
    and two per-user caches filled on first use: the user's bid positions
    and weights, and a bitmask of the event positions assigned to them
    (the user's row of :attr:`Arrangement.assignment_words` as one int).  The
    ``apply_*`` moves update the mirrors and masks along with the
    arrangement, so the state must be the arrangement's only writer while
    it lives.
    """

    def __init__(self, instance: IGEPAInstance, arrangement: Arrangement):
        index = instance.index
        self.arrangement = arrangement
        self.index = index
        self.user_ids = index.user_ids.tolist()
        self.event_ids = index.event_ids.tolist()
        self.user_cap = index.user_capacity.tolist()
        self.event_cap = index.event_capacity.tolist()
        self.conflict_bits = index.conflict_bits
        # Mirrors of the arrangement counters, updated at each accepted move.
        self.attendance = arrangement.attendance_counts.tolist()
        self.load = arrangement.load_counts.tolist()
        self._bids: dict[int, tuple[list[int], list[float]]] = {}
        self._masks: dict[int, int] = {}

    def bids_of(self, upos: int) -> tuple[list[int], list[float]]:
        """The user's bid positions and ``w(u, v)``, in bid-list order."""
        bids = self._bids.get(upos)
        if bids is None:
            index = self.index
            lo, hi = index.bid_indptr[upos], index.bid_indptr[upos + 1]
            bids = (
                index.bid_indices[lo:hi].tolist(),
                index.bid_weights[lo:hi].tolist(),
            )
            self._bids[upos] = bids
        return bids

    def bits_of(self, upos: int) -> int:
        """Bitmask of the event positions assigned to the user."""
        mask = self._masks.get(upos)
        if mask is None:
            row = self.arrangement.assignment_words[upos]
            mask = int.from_bytes(row.tobytes(), "little")
            self._masks[upos] = mask
        return mask

    # Each move mutates the arrangement first; ``bits_of`` then either
    # rebuilds the mask from the updated arrangement or returns the cached
    # one, and the bit edits below are correct on both.
    def apply_add(self, upos: int, vpos: int) -> None:
        self.arrangement.add(self.event_ids[vpos], self.user_ids[upos], check=False)
        self.attendance[vpos] += 1
        self.load[upos] += 1
        self._masks[upos] = self.bits_of(upos) | (1 << vpos)

    def apply_swap(self, upos: int, old_vpos: int, new_vpos: int) -> None:
        user_id = self.user_ids[upos]
        self.arrangement.remove(self.event_ids[old_vpos], user_id)
        self.arrangement.add(self.event_ids[new_vpos], user_id, check=False)
        self.attendance[old_vpos] -= 1
        self.attendance[new_vpos] += 1
        self._masks[upos] = (self.bits_of(upos) & ~(1 << old_vpos)) | (1 << new_vpos)

    def apply_evict(self, vpos: int, out_upos: int, in_upos: int) -> None:
        event_id = self.event_ids[vpos]
        self.arrangement.remove(event_id, self.user_ids[out_upos])
        self.arrangement.add(event_id, self.user_ids[in_upos], check=False)
        self.load[out_upos] -= 1
        self.load[in_upos] += 1
        self._masks[out_upos] = self.bits_of(out_upos) & ~(1 << vpos)
        self._masks[in_upos] = self.bits_of(in_upos) | (1 << vpos)


# ----------------------------------------------------------------------
# Batched screening.  Each scan first screens all of its candidates at once
# with NumPy against the state at the start of the scan, then probes the
# survivors live, in the scan's order, with the scalar checks.  A screen
# only drops candidates that the scalar check would reject when the loop
# reaches them (the upgrade screen, until the user's first swap), so the
# moves are the scalar scan's moves.
# ----------------------------------------------------------------------
def _csr_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of CSR ``rows``, row by row: each entry's rank in
    ``rows`` and its index into the CSR entry arrays."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(rows.size), lengths)
    entries = np.arange(owner.size) + np.repeat(
        starts - (np.cumsum(lengths) - lengths), lengths
    )
    return owner, entries


def _conflicting(
    state: _SearchState, users: np.ndarray, events: np.ndarray
) -> np.ndarray:
    """Whether each user already attends an event conflicting with the
    paired event — the ``conflict_bits[v] & bits_of(u)`` probe, batched."""
    assigned = state.arrangement.assignment_words[users]
    return (assigned & state.index.conflict_words[events]).any(axis=1)


def _add_screened(
    state: _SearchState, users: np.ndarray, events: np.ndarray, weights: np.ndarray
) -> int:
    """Seat ``(users[k], events[k])`` candidates in order, each if still
    feasible when reached.

    Screened first, all at once: non-positive weights, users at their load
    cap, full events, pairs already held and events conflicting with the
    user's.  Adds only fill seats and loads and only grow users' event
    sets, so a screened-out pair would be rejected when reached; survivors
    are probed live.
    """
    arrangement = state.arrangement
    index = state.index
    kept = np.flatnonzero(
        (weights > _MIN_GAIN)
        & (arrangement.load_counts[users] < index.user_capacity[users])
        & (arrangement.attendance_counts[events] < index.event_capacity[events])
        & ~arrangement.assigned_mask(users, events)
    )
    kept = kept[~_conflicting(state, users[kept], events[kept])]

    attendance = state.attendance
    load = state.load
    event_cap = state.event_cap
    user_cap = state.user_cap
    conflict_bits = state.conflict_bits
    accepted = 0
    for upos, vpos in zip(users[kept].tolist(), events[kept].tolist()):
        if load[upos] >= user_cap[upos] or attendance[vpos] >= event_cap[vpos]:
            continue
        mask = state.bits_of(upos)
        if mask >> vpos & 1 or conflict_bits[vpos] & mask:
            continue
        state.apply_add(upos, vpos)
        accepted += 1
    return accepted


def _try_add_moves(state: _SearchState, user_scan: Sequence[int]) -> int:
    """User-major add moves: each scanned user's bids, in bid-list order."""
    index = state.index
    users = np.asarray(user_scan, dtype=np.int64)
    users = users[state.arrangement.load_counts[users] < index.user_capacity[users]]
    owner, entries = _csr_entries(index.bid_indptr, users)
    return _add_screened(
        state, users[owner], index.bid_indices[entries], index.bid_weights[entries]
    )


def _try_refill_moves(state: _SearchState, event_scan: Sequence[int]) -> int:
    """Event-major add moves: fill free seats from the event's bidder pool.

    The user-major add scan only sees users in its scope; churn repair
    scopes to *touched* users, so a seat freed on a touched event would
    never be offered to its (untouched) bidders.  This scan closes that
    gap; weights are nonnegative, so every accepted refill is a gain.
    Disabled in the default full-scope search, where the user-major scan
    already covers every candidate (keeping move order — and therefore
    fixed-seed results — unchanged).
    """
    attendance = state.attendance
    event_cap = state.event_cap
    open_events = [vpos for vpos in event_scan if attendance[vpos] < event_cap[vpos]]
    if not open_events:
        return 0
    index = state.index
    positions = np.asarray(open_events, dtype=np.int64)
    group, entries = _csr_entries(index.bidder_indptr, positions)
    return _add_screened(
        state,
        index.bidder_indices[entries],
        positions[group],
        index.bidder_weights[entries],
    )


def _upgrade_candidates(
    state: _SearchState, users: np.ndarray
) -> dict[tuple[int, int], list[int]]:
    """Screened upgrade targets per ``(user, assigned event)`` pair.

    For each event a user holds, the bids with gain above ``_MIN_GAIN`` that
    the user does not hold and that conflict with none of the user's other
    events — in stable descending-gain order, so the first one with a free
    seat is the scalar scan's first maximum-gain feasible bid.  Pairs with
    no such bid are left out.  The screen reads only the user's own events,
    which only the user's own swaps change.
    """
    if not users.size:
        return {}
    index = state.index
    arrangement = state.arrangement
    rows = arrangement.assignment_words[users]
    row_of_pair, current = word_positions(rows)
    pair_user = users[row_of_pair]
    current_weight = index.pair_weights(pair_user, current)

    pair, entries = _csr_entries(index.bid_indptr, pair_user)
    candidate = index.bid_indices[entries]
    gain = index.bid_weights[entries] - current_weight[pair]
    kept = np.flatnonzero(
        (gain > _MIN_GAIN) & ~arrangement.assigned_mask(pair_user[pair], candidate)
    )
    # The user's other events: the held set with the pair's own event cleared.
    others = rows[row_of_pair]
    others[np.arange(current.size), current >> 6] &= ~(
        np.uint64(1) << (current & 63).astype(np.uint64)
    )
    conflicts = index.conflict_words[candidate[kept]]
    kept = kept[~(others[pair[kept]] & conflicts).any(axis=1)]
    kept = kept[np.lexsort((-gain[kept], pair[kept]))]

    pairs = pair[kept]
    heads = (
        np.flatnonzero(np.r_[True, pairs[1:] != pairs[:-1]]) if pairs.size else pairs
    )
    bounds = heads.tolist() + [pairs.size]
    targets = candidate[kept].tolist()
    users_of = pair_user[pairs[heads]].tolist()
    events_of = current[pairs[heads]].tolist()
    return {
        (users_of[k], events_of[k]): targets[bounds[k] : bounds[k + 1]]
        for k in range(len(users_of))
    }


def _best_upgrade(state: _SearchState, upos: int, current: int) -> int | None:
    """The scalar upgrade probe: the first bid (in bid-list order) with the
    maximum gain over ``current`` that is feasible after the swap."""
    bids, weights = state.bids_of(upos)
    current_weight = weights[bids.index(current)]
    mask = state.bits_of(upos)
    others = mask & ~(1 << current)
    attendance = state.attendance
    event_cap = state.event_cap
    conflict_bits = state.conflict_bits
    best = None
    best_gain = _MIN_GAIN
    for offset, candidate in enumerate(bids):
        gain = weights[offset] - current_weight
        if gain <= best_gain:
            continue
        if mask >> candidate & 1:
            continue
        if attendance[candidate] >= event_cap[candidate]:
            continue
        if conflict_bits[candidate] & others:
            continue
        best = candidate
        best_gain = gain
    return best


def _try_upgrade_moves(state: _SearchState, user_scan: Sequence[int]) -> int:
    """Upgrade moves, user by user, each user's events in event-id order.

    Targets come from :func:`_upgrade_candidates`, probed live for a free
    seat (swaps by other users move attendance both ways).  Once a user has
    swapped, the screen no longer describes their events, and their later
    events go through the scalar probe.
    """
    index = state.index
    load = state.arrangement.load_counts
    users = np.unique(np.asarray(user_scan, dtype=np.int64))
    # Users holding an event and not overloaded (no swap can fix overload).
    users = users[(load[users] > 0) & (load[users] - 1 < index.user_capacity[users])]
    ranked = _upgrade_candidates(state, users)
    screened = {upos for upos, _ in ranked}

    attendance = state.attendance
    event_cap = state.event_cap
    event_ids = state.event_ids
    swapped: set[int] = set()
    accepted = 0
    for upos in user_scan:
        if upos not in screened and upos not in swapped:
            continue
        assigned = mask_positions(state.bits_of(upos))
        for current in sorted(assigned, key=event_ids.__getitem__):
            if upos in swapped:
                best = _best_upgrade(state, upos, current)
            else:
                best = next(
                    (
                        target
                        for target in ranked.get((upos, current), ())
                        if attendance[target] < event_cap[target]
                    ),
                    None,
                )
            if best is not None:
                state.apply_swap(upos, current, best)
                swapped.add(upos)
                accepted += 1
    return accepted


def _try_evict_moves(state: _SearchState, event_scan: Sequence[int]) -> int:
    """Batched evict scan over the full events of ``event_scan``.

    Selects the same moves as a scalar scan: the lightest attendee by
    ``(w(u, v), user_id)`` and the first bidder (in bidder order) carrying
    the maximum feasible gain — realized as a stable descending-gain order
    probed until the first candidate with a free load slot and no conflict.

    Everything but those probes is computed once, up front, for all full
    events, from the bidder incidence (an arrangement seats only bidders).
    That is exact: an eviction only rewrites its own event's column, and no
    event repeats within a pass, so each event's attendees, lightest
    attendee and candidate gains are the same when the loop reaches it as
    they were at the start.  Loads and users' assigned events do change, so
    they are probed live.
    """
    attendance = state.attendance
    event_cap = state.event_cap
    # Full (and not over capacity): attendance == capacity, with attendees.
    full = [
        vpos
        for vpos in event_scan
        if attendance[vpos] == event_cap[vpos] and attendance[vpos] > 0
    ]
    if not full:
        return 0
    index = state.index
    positions = np.asarray(full, dtype=np.int64)
    group, entries = _csr_entries(index.bidder_indptr, positions)
    bidders = index.bidder_indices[entries]
    weights = index.bidder_weights[entries]
    attending = state.arrangement.assigned_mask(bidders, positions[group])

    # Lightest attendee per event: first of each group in (w, user_id) order.
    seated = np.flatnonzero(attending)
    seated = seated[
        np.lexsort((index.user_ids[bidders[seated]], weights[seated], group[seated]))
    ]
    heads = np.ones(seated.size, dtype=bool)
    heads[1:] = group[seated[1:]] != group[seated[:-1]]
    lightest_entry = seated[heads]
    lightest = bidders[lightest_entry].tolist()

    # Candidates per event in stable descending-gain order (lexsort is
    # stable, so equal gains keep bidder order).
    gains = weights - weights[lightest_entry][group]
    candidates = np.flatnonzero(~attending & (gains > _MIN_GAIN))
    candidates = candidates[np.lexsort((-gains[candidates], group[candidates]))]
    bounds = np.searchsorted(group[candidates], np.arange(len(full) + 1)).tolist()
    ranked = bidders[candidates].tolist()

    load = state.load
    user_cap = state.user_cap
    conflict_bits = state.conflict_bits
    accepted = 0
    for rank, vpos in enumerate(full):
        conflicts = conflict_bits[vpos]
        for bidder in ranked[bounds[rank] : bounds[rank + 1]]:
            if load[bidder] >= user_cap[bidder]:
                continue
            if conflicts & state.bits_of(bidder):
                continue
            state.apply_evict(vpos, lightest[rank], bidder)
            accepted += 1
            break
    return accepted


def iter_passes(
    instance: IGEPAInstance,
    arrangement: Arrangement,
    max_passes: int = 20,
    user_positions: Sequence[int] | None = None,
    event_positions: Sequence[int] | None = None,
    refill_events: bool = False,
) -> Iterator[dict[str, int]]:
    """Run add/upgrade/evict passes in place, yielding each pass's counts.

    All passes share one :class:`_SearchState`, built when the first pass
    starts.  The iteration ends after ``max_passes`` passes or after the
    first pass that moved nothing (that pass is still yielded).  Every pass
    leaves the arrangement feasible, so a caller may stop between passes;
    it must not modify the arrangement while the iteration is suspended.

    Args:
        instance: the instance the arrangement belongs to.
        arrangement: improved in place.
        max_passes: cap on improvement passes.
        user_positions: restrict add/upgrade scans to these user positions
            (default: all users).  Targeted churn repair passes the touched
            users only.
        event_positions: restrict evict scans to these event positions
            (default: all events).
        refill_events: additionally run the event-major refill scan over
            ``event_positions`` (see :func:`_try_refill_moves`).  Needed by
            scoped repair; redundant — and off — for full-scope searches.

    Yields:
        ``{"adds": ..., "refills": ..., "upgrades": ..., "evictions": ...}``
        for each pass.
    """
    user_scan = (
        range(instance.index.num_users)
        if user_positions is None
        else sorted(user_positions)
    )
    state = _SearchState(instance, arrangement)
    event_scan = (
        range(instance.index.num_events)
        if event_positions is None
        else sorted(event_positions)
    )
    for _ in range(max_passes):
        counts = {
            "adds": _try_add_moves(state, user_scan),
            "refills": (
                _try_refill_moves(state, event_scan) if refill_events else 0
            ),
            "upgrades": _try_upgrade_moves(state, user_scan),
            "evictions": _try_evict_moves(state, event_scan),
        }
        yield counts
        if not any(counts.values()):
            return


def improve(
    instance: IGEPAInstance,
    arrangement: Arrangement,
    max_passes: int = 20,
    user_positions: Sequence[int] | None = None,
    event_positions: Sequence[int] | None = None,
    refill_events: bool = False,
) -> dict:
    """Run add/upgrade/evict passes in place until a local optimum.

    Drains :func:`iter_passes` (same arguments) and sums its counts.

    Returns:
        Move counts: ``{"adds": ..., "refills": ..., "upgrades": ...,
        "evictions": ..., "passes": ...}``.
    """
    totals = dict.fromkeys(_MOVE_KEYS, 0)
    totals["passes"] = 0
    for counts in iter_passes(
        instance,
        arrangement,
        max_passes=max_passes,
        user_positions=user_positions,
        event_positions=event_positions,
        refill_events=refill_events,
    ):
        for key in _MOVE_KEYS:
            totals[key] += counts[key]
        totals["passes"] += 1
    return totals


class LocalSearch(ArrangementAlgorithm):
    """Decorator algorithm: run ``base``, then local-search improve.

    Args:
        base: any arrangement algorithm whose output seeds the search.
        max_passes: cap on improvement passes.
    """

    def __init__(self, base: ArrangementAlgorithm, max_passes: int = 20):
        super().__init__(seed=base.seed)
        self.base = base
        self.max_passes = max_passes
        self.name = f"{base.name}+ls"

    def _solve(
        self, instance: IGEPAInstance, rng: np.random.Generator
    ) -> tuple[Arrangement, dict]:
        seed = int(rng.integers(2**31))
        base_result = self.base.solve(instance, seed=seed)
        arrangement = base_result.arrangement
        base_utility = base_result.utility
        moves = improve(instance, arrangement, max_passes=self.max_passes)
        details = dict(base_result.details)
        details.update(
            base_algorithm=self.base.name,
            base_utility=base_utility,
            local_search_moves=moves,
        )
        return arrangement, details
