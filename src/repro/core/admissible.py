"""Admissible event sets (§III of the paper).

For a user ``u``, an admissible event set ``S ⊆ N_u`` is a *nonempty*,
*conflict-free* subset of the user's bids with ``|S| ≤ c_u``.  (The paper's
text misprints the conflict condition as ``σ = 1``; "admissible event sets …
without conflicting events" makes the intent unambiguous.)
The collection ``A_u`` of all such sets is downward closed: every nonempty
subset of an admissible set is admissible.

Enumeration is exact: a depth-first walk over the user's bids in sorted order
that extends only by non-conflicting events, which visits every independent
set of the bid-conflict graph of size ``≤ c_u`` exactly once.  The walk
carries the chosen events as a bitmask over event positions, so each
extension is one ``conflict_bits[v] & chosen`` test on the index.  The paper
"assume[s] that a user will not bid for too many events, so the number of
admissible event sets will be reasonable"; :data:`DEFAULT_MAX_SETS_PER_USER`
turns a violation of that assumption into a clear error instead of a hang.
"""

from __future__ import annotations

from collections.abc import Sequence

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


def enumerate_admissible_sets(
    instance: IGEPAInstance,
    user: User,
    max_sets: int = DEFAULT_MAX_SETS_PER_USER,
) -> list[tuple[int, ...]]:
    """All admissible event sets of ``user``, as sorted tuples of event ids.

    The result is ordered lexicographically (the DFS visits extensions in
    sorted-bid order), which makes downstream sampling reproducible.

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
    results: list[tuple[int, ...]] = []
    if capacity == 0 or not bids:
        return results

    conflict_bits = index.conflict_bits
    positions = [index.event_pos[event_id] for event_id in bids]
    masks = [conflict_bits[p] for p in positions]
    flags = [1 << p for p in positions]

    def extend(start: int, current: list[int], chosen: int) -> None:
        for offset in range(start, len(bids)):
            if masks[offset] & chosen:
                continue
            current.append(bids[offset])
            results.append(tuple(current))
            if len(results) > max_sets:
                raise AdmissibleSetExplosion(user_id, max_sets)
            if len(current) < capacity:
                extend(offset + 1, current, chosen | flags[offset])
            current.pop()

    extend(0, [], 0)
    return results


def enumerate_all_admissible_sets(
    instance: IGEPAInstance,
    max_sets_per_user: int = DEFAULT_MAX_SETS_PER_USER,
) -> dict[int, list[tuple[int, ...]]]:
    """``A_u`` for every user of the instance, keyed by user id.

    Bid lists are sliced from the store's CSR in one pass rather than read
    user by user through views.
    """
    index = instance.index
    store = instance.store
    return {
        user_id: enumerate_bid_sets(
            index, user_id, bids, capacity, max_sets_per_user
        )
        for user_id, capacity, bids in zip(
            store.user_ids.tolist(),
            store.user_capacity.tolist(),
            store.bid_lists(),
        )
    }


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
