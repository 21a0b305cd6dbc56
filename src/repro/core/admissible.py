"""Admissible event sets (§III of the paper).

For a user ``u``, an admissible event set ``S ⊆ N_u`` is a *nonempty*,
*conflict-free* subset of the user's bids with ``|S| ≤ c_u``.  (The paper's
text misprints the conflict condition as ``σ = 1``; "admissible event sets …
without conflicting events" makes the intent unambiguous.)
The collection ``A_u`` of all such sets is downward closed: every nonempty
subset of an admissible set is admissible.

Enumeration is exact and batched: :func:`enumerate_admissible_batch` walks
any number of users at once, level by level over set size.  Each level
extends every user's sets of the previous size by each later bid (in sorted
event-id order) that conflicts with none of the set's members, one NumPy pass
per level with the σ lookups read off ``conflict_matrix``.  That visits
every independent set of each user's bid-conflict graph of size ``≤ c_u``
exactly once; a final sort puts each user's sets in lexicographic order over
their sorted event ids, prefixes first.  The output is flat arrays (the user
position of each set, then each set's members), which the benchmark LP is
assembled from without a per-set Python object.  The one-user calls
(:func:`enumerate_bid_sets`, :func:`enumerate_admissible_sets`) run the same
walk and return event-id tuples.

The paper "assume[s] that a user will not bid for too many events, so the
number of admissible event sets will be reasonable";
:data:`DEFAULT_MAX_SETS_PER_USER` turns a violation of that assumption into a
clear error instead of a hang.  The error names the first user, in the order
the users were given, whose collection exceeds the cap.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.model.entities import User
from repro.model.index import BaseInstanceIndex
from repro.model.instance import IGEPAInstance

DEFAULT_MAX_SETS_PER_USER = 100_000


class AdmissibleSetExplosion(RuntimeError):
    """A user's admissible-set collection exceeded the configured cap."""

    def __init__(self, user_id: int, cap: int):
        super().__init__(
            f"user {user_id} has more than {cap} admissible event sets; "
            "the LP-packing formulation assumes few bids per user — lower the "
            "user's bid count or raise max_sets_per_user"
        )
        self.user_id = user_id
        self.cap = cap


class AdmissibleSets(NamedTuple):
    """``A_u`` for a batch of users, as flat arrays.

    Sets come user by user in the order the users were given, each user's
    in lexicographic order over sorted event ids (prefixes first).

    Attributes:
        counts: the number of sets of each user of the batch, in the
            order the users were given.
        upos: the user position of each set.
        indptr: set ``k``'s members are entries ``indptr[k]:indptr[k+1]``
            of ``vpos`` and ``bids``, in ascending event id.
        vpos: each member's event position.
        bids: each member's entry in the index's bid CSR, so
            ``index.bid_weights[bids]`` is its ``w(u, v)``.
    """

    counts: np.ndarray
    upos: np.ndarray
    indptr: np.ndarray
    vpos: np.ndarray
    bids: np.ndarray


def _walk(
    vpos: np.ndarray,
    indptr: np.ndarray,
    capacity: np.ndarray,
    conflict: np.ndarray,
    max_sets: int,
    user_ids: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Every admissible set of every group, level by level.

    Group ``g`` holds the candidate bids ``vpos[indptr[g]:indptr[g+1]]``,
    sorted by event id, and the set size bound ``capacity[g]``.  Returns
    ``(sizes, members)``: the size of each set in output order and the flat
    offsets into ``vpos`` of their members.

    Raises:
        AdmissibleSetExplosion: naming ``user_ids[g]`` for the first group
            ``g`` with more than ``max_sets`` sets.
    """
    # NumPy's methods rather than its functions below: one-user calls
    # (online serving) are small enough for the functions' dispatch to show.
    num_groups = capacity.size
    lengths = indptr[1:] - indptr[:-1]
    if not lengths.any():
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    group_of = np.arange(num_groups, dtype=np.int64).repeat(lengths)
    group_end = indptr[1:].repeat(lengths)
    members = (capacity[group_of] >= 1).nonzero()[0][:, None]
    levels = [members]
    largest = min(int(capacity.max()), int(lengths.max()))
    # A group of n bids has at most 2**n - 1 sets, so the guard only counts
    # when some group could pass the cap.  From the first group over the
    # cap on, groups stop growing: the error names the first group whose
    # final count exceeds it, so only earlier groups still need counting.
    guarded = 2 ** int(lengths.max()) - 1 > max_sets
    stop = num_groups
    if guarded:
        totals = np.bincount(group_of[members[:, 0]], minlength=num_groups)
        over = (totals > max_sets).nonzero()[0]
        stop = int(over[0]) if over.size else num_groups
    for size in range(1, largest):
        last = members[:, -1]
        groups = group_of[last]
        grows = capacity[groups] > size
        if stop < num_groups:
            grows &= groups < stop
        fanout = (group_end[last] - last - 1) * grows
        count = int(fanout.sum())
        if not count:
            break
        parent = np.arange(last.size, dtype=np.int64).repeat(fanout)
        candidate = (last + 1 - (fanout.cumsum() - fanout)).repeat(fanout)
        candidate += np.arange(count)
        target = vpos[candidate]
        free = ~conflict[vpos[members[parent, 0]], target]
        for column in range(1, size):
            free &= ~conflict[vpos[members[parent, column]], target]
        members = np.concatenate(
            (members[parent[free]], candidate[free, None]), axis=1
        )
        levels.append(members)
        if guarded:
            totals += np.bincount(group_of[members[:, -1]], minlength=num_groups)
            over = (totals[:stop] > max_sets).nonzero()[0]
            if over.size:
                stop = int(over[0])
    if stop < num_groups:
        raise AdmissibleSetExplosion(int(user_ids[stop]), max_sets)
    if len(levels) == 1:
        return np.ones(members.shape[0], dtype=np.int64), members[:, 0]

    # Pad each set's offsets with -1 up to the largest size and sort the
    # rows lexicographically: -1 puts a prefix before its extensions, and
    # the first offset orders the groups, whose ranges ascend.
    num_sets = sum(level.shape[0] for level in levels)
    padded = np.full((num_sets, len(levels)), -1, dtype=np.int64)
    row = 0
    for width, level in enumerate(levels, start=1):
        padded[row : row + level.shape[0], :width] = level
        row += level.shape[0]
    padded = padded[np.lexsort(padded.T[::-1])]
    present = padded >= 0
    return present.sum(axis=1), padded[present]


def enumerate_admissible_batch(
    index: BaseInstanceIndex,
    upos: np.ndarray | None = None,
    max_sets: int = DEFAULT_MAX_SETS_PER_USER,
) -> AdmissibleSets:
    """``A_u`` of the users at positions ``upos`` (default: every user, in
    index order), read off the index's bid CSR in one batch.

    Raises:
        AdmissibleSetExplosion: for the first user in ``upos`` order whose
            collection exceeds ``max_sets``.
    """
    if upos is None:
        upos = np.arange(index.num_users, dtype=np.int64)
    upos = np.asarray(upos, dtype=np.int64)
    starts = index.bid_indptr[upos]
    lengths = index.bid_indptr[upos + 1] - starts
    indptr = np.zeros(upos.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    # Bid entries of the batch, group by group, then each group's in
    # ascending event id.
    entries = np.repeat(starts - indptr[:-1], lengths) + np.arange(
        indptr[-1], dtype=np.int64
    )
    groups = np.repeat(np.arange(upos.size, dtype=np.int64), lengths)
    entries = entries[
        np.lexsort((index.event_ids[index.bid_indices[entries]], groups))
    ]
    vpos = index.bid_indices[entries]
    sizes, members = _walk(
        vpos,
        indptr,
        index.user_capacity[upos],
        index.conflict_matrix,
        max_sets,
        index.user_ids[upos],
    )
    set_indptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=set_indptr[1:])
    set_groups = groups[members[set_indptr[:-1]]]
    return AdmissibleSets(
        counts=np.bincount(set_groups, minlength=upos.size),
        upos=upos[set_groups],
        indptr=set_indptr,
        vpos=vpos[members],
        bids=entries[members],
    )


def enumerate_admissible_sets(
    instance: IGEPAInstance,
    user: User,
    max_sets: int = DEFAULT_MAX_SETS_PER_USER,
) -> list[tuple[int, ...]]:
    """All admissible event sets of ``user``, as sorted tuples of event ids.

    The result is ordered lexicographically (prefixes first), which makes
    downstream sampling reproducible.

    Args:
        instance: supplies the conflict relation between bid events.
        user: whose bids and capacity define the collection.
        max_sets: explosion guard.

    Raises:
        AdmissibleSetExplosion: when the collection exceeds ``max_sets``.
    """
    return enumerate_bid_sets(
        instance.index, user.user_id, user.bids, user.capacity, max_sets
    )


def enumerate_bid_sets(
    index: BaseInstanceIndex,
    user_id: int,
    bids: Sequence[int],
    capacity: int,
    max_sets: int = DEFAULT_MAX_SETS_PER_USER,
) -> list[tuple[int, ...]]:
    """:func:`enumerate_admissible_sets` on a user's already-read fields.

    Callers that hold the bid list and capacity (read once from a user
    view, or sliced from the store's columns) enumerate without reading
    them again.
    """
    bids = sorted(bids)
    if capacity == 0 or not bids:
        return []
    event_pos = index.event_pos
    sizes, members = _walk(
        np.fromiter(map(event_pos.__getitem__, bids), dtype=np.int64, count=len(bids)),
        np.array([0, len(bids)], dtype=np.int64),
        np.array([capacity], dtype=np.int64),
        index.conflict_matrix,
        max_sets,
        (user_id,),
    )
    flat = np.asarray(bids)[members].tolist()
    ends = np.cumsum(sizes).tolist()
    return [tuple(flat[end - size : end]) for size, end in zip(sizes.tolist(), ends)]


def enumerate_all_admissible_sets(
    instance: IGEPAInstance,
    max_sets_per_user: int = DEFAULT_MAX_SETS_PER_USER,
) -> dict[int, list[tuple[int, ...]]]:
    """``A_u`` for every user of the instance, keyed by user id (one
    :func:`enumerate_admissible_batch` call)."""
    index = instance.index
    sets = enumerate_admissible_batch(index, max_sets=max_sets_per_user)
    return dict(zip(index.user_ids.tolist(), split_sets(sets, index)))


def split_sets(
    sets: AdmissibleSets, index: BaseInstanceIndex
) -> list[list[tuple[int, ...]]]:
    """Event-id tuples of ``sets``, one list per user of the batch."""
    flat = index.event_ids[sets.vpos].tolist()
    tuples = [tuple(flat[lo:hi]) for lo, hi in itertools.pairwise(sets.indptr.tolist())]
    counts = sets.counts.tolist()
    ends = itertools.accumulate(counts)
    return [tuples[end - count : end] for count, end in zip(counts, ends)]


def is_admissible(
    instance: IGEPAInstance, user: User, events: Sequence[int]
) -> bool:
    """Whether ``events`` is an admissible event set for ``user``.

    Checks all three conditions: nonempty subset of the bids, within the
    user's capacity, and pairwise conflict-free.
    """
    events = list(events)
    if not events or len(events) > user.capacity:
        return False
    if len(set(events)) != len(events):
        return False
    if not set(events) <= user.bid_set:
        return False
    index = instance.index
    conflict_bits = index.conflict_bits
    positions = [index.event_pos[event_id] for event_id in events]
    chosen = 0
    for p in positions:
        chosen |= 1 << p
    return not any(conflict_bits[p] & chosen for p in positions)
