"""Churn deltas: mutate an IGEPA instance without rebuilding its index.

The paper solves a one-shot offline arrangement; a production EBSN platform
instead sees *sustained traffic*: users register and cancel, re-bid their
event lists, events open and close, and the conflict relation evolves.
:class:`Delta` captures one batch of such changes, and :func:`apply_delta`
produces the successor :class:`~repro.model.instance.IGEPAInstance` together
with

* an **incrementally maintained** :class:`~repro.model.index.InstanceIndex`
  — CSR bid incidence/conflict matrix/capacity vectors patched from the
  predecessor's arrays instead of rebuilt (the dense ``W``/``SI`` are
  scattered from them), skipping the conflict materialization and the
  degree pass for untouched entities; and
* a **carried-over arrangement**: the predecessor's assignment with every
  pair the delta invalidated dropped (removed users/events/bids, new
  conflicts, capacity shrinks) by array work over the held pairs, plus the
  touched user/event sets a targeted repair should re-optimize.

The patched index is *bit-identical* to a from-scratch
``InstanceIndex(successor)`` build: surviving entries are copied (IEEE-754
bit patterns preserved), new entries are computed by the exact expressions
the from-scratch build uses, and every derived array goes through the shared
:meth:`InstanceIndex._finalize`.  ``tests/model/test_delta.py`` and the
churn property suite enforce this array by array.

Application order within one delta is fixed and documented on
:func:`apply_delta`; generators (:mod:`repro.datagen.churn`) rely on it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis_tools.sanitize import sanitize_index
from repro.model.arrangement import Arrangement
from repro.model.columnar import (
    ColumnarStore,
    carry_attributes,
    carry_categories,
    carry_temporal,
)
from repro.model.conflicts import MatrixConflict
from repro.model.entities import Event, User
from repro.model.errors import ModelError
from repro.model.index import (
    BaseInstanceIndex,
    InstanceIndex,
    build_degrees,
    index_class,
)
from repro.model.instance import IGEPAInstance
from repro.model.interest import TabulatedInterest, pair_interest
from repro.social.graph import Graph


class DeltaError(ModelError):
    """A churn delta references unknown ids, duplicates existing ones, or
    mixes operations the instance's conflict/interest functions cannot
    absorb."""


@dataclass(frozen=True)
class Delta:
    """One batch of churn against an IGEPA instance.

    Attributes:
        add_users: new :class:`User` objects (fresh ids; their ``bids`` may
            reference surviving *or* newly added events).
        remove_users: ids of users leaving the platform.
        add_events: new :class:`Event` objects (fresh ids).
        remove_events: ids of events closing; surviving users' bids for them
            are dropped implicitly.
        add_bids: ``(user_id, event_id)`` bids for *surviving* users (bids of
            new users belong on their :class:`User` objects).  Appended to
            the user's bid list in the given order.
        remove_bids: ``(user_id, event_id)`` bids withdrawn by surviving
            users.  The event may be closing in the same delta.
        add_conflicts: new conflicting event pairs, each absent from the
            predecessor and listed once (requires a :class:`MatrixConflict`
            instance).  A pair may name events the delta opens.
        remove_conflicts: conflicting event pairs of the predecessor
            dissolved, each listed once (requires a :class:`MatrixConflict`
            instance).  A closing event's pairs go with it: the successor's
            σ is a view of its patched conflict matrix, which holds the
            surviving events only.
        set_user_capacity: ``(user_id, new_capacity)`` changes for surviving,
            pre-existing users (new users carry their own capacity).  A
            shrink below the user's carried load sheds their lightest pairs.
        set_event_capacity: ``(event_id, new_capacity)`` changes for
            surviving, pre-existing events.  A shrink below the carried
            attendance sheds the event's lightest pairs.
        interest: ``(event_id, user_id, SI)`` entries (requires a
            :class:`TabulatedInterest` instance; functional interest needs
            none).  An entry sets the SI of a bid of the successor — a
            spliced bid or a surviving one (interest drift); a later entry
            on a pair wins.  An entry naming no bid of the successor stores
            nothing, but still marks its user and event touched.  A bid
            spliced without an entry takes the instance's interest
            function's value.
        degrees: ``user_id -> D(G, u)`` overrides for new users on instances
            built with degree overrides (sampled-marginal workloads).
    """

    add_users: tuple[User, ...] = ()
    remove_users: tuple[int, ...] = ()
    add_events: tuple[Event, ...] = ()
    remove_events: tuple[int, ...] = ()
    add_bids: tuple[tuple[int, int], ...] = ()
    remove_bids: tuple[tuple[int, int], ...] = ()
    add_conflicts: tuple[tuple[int, int], ...] = ()
    remove_conflicts: tuple[tuple[int, int], ...] = ()
    set_user_capacity: tuple[tuple[int, int], ...] = ()
    set_event_capacity: tuple[tuple[int, int], ...] = ()
    interest: tuple[tuple[int, int, float], ...] = ()
    degrees: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "add_users", tuple(self.add_users))
        object.__setattr__(self, "remove_users", tuple(self.remove_users))
        object.__setattr__(self, "add_events", tuple(self.add_events))
        object.__setattr__(self, "remove_events", tuple(self.remove_events))
        for name in (
            "add_bids",
            "remove_bids",
            "add_conflicts",
            "remove_conflicts",
            "set_user_capacity",
            "set_event_capacity",
        ):
            object.__setattr__(
                self,
                name,
                tuple((int(a), int(b)) for a, b in getattr(self, name)),
            )
        object.__setattr__(
            self,
            "interest",
            tuple((int(e), int(u), float(v)) for e, u, v in self.interest),
        )
        object.__setattr__(
            self,
            "degrees",
            tuple((int(u), float(v)) for u, v in self.degrees),
        )

    def is_empty(self) -> bool:
        """Whether the delta performs no operation at all — including pure
        re-weightings (interest/degree updates), which change utilities
        without touching the entity sets."""
        return not (
            self.add_users
            or self.remove_users
            or self.add_events
            or self.remove_events
            or self.add_bids
            or self.remove_bids
            or self.add_conflicts
            or self.remove_conflicts
            or self.set_user_capacity
            or self.set_event_capacity
            or self.interest
            or self.degrees
        )

    def summary(self) -> dict[str, int]:
        """Operation counts, for reports and replay logs."""
        return {
            "add_users": len(self.add_users),
            "remove_users": len(self.remove_users),
            "add_events": len(self.add_events),
            "remove_events": len(self.remove_events),
            "add_bids": len(self.add_bids),
            "remove_bids": len(self.remove_bids),
            "add_conflicts": len(self.add_conflicts),
            "remove_conflicts": len(self.remove_conflicts),
            "user_capacity_updates": len(self.set_user_capacity),
            "event_capacity_updates": len(self.set_event_capacity),
            "interest_updates": len(self.interest),
            "degree_updates": len(self.degrees),
        }


@dataclass
class DeltaResult:
    """Everything :func:`apply_delta` produces for one batch.

    Attributes:
        instance: the successor instance (patched index attached when the
            incremental path ran).
        arrangement: the carried-over arrangement with invalid pairs
            dropped, or None when no arrangement was passed in.  Feasible by
            construction but typically improvable — run the targeted repair.
        dropped_pairs: ``(event_id, user_id)`` pairs the delta invalidated.
        touched_users: ids of users whose options changed (lost pairs, new
            or changed bids, re-weighted pairs, dissolved conflicts) — the
            add/upgrade scope of a targeted repair.
        touched_events: ids of events whose attendance or bidder pool
            changed — the evict scope of a targeted repair.
        incremental: whether the index was delta-patched (False: the
            successor builds its index from scratch on first use).
    """

    instance: IGEPAInstance
    arrangement: Arrangement | None
    dropped_pairs: list[tuple[int, int]] = field(default_factory=list)
    touched_users: set[int] = field(default_factory=set)
    touched_events: set[int] = field(default_factory=set)
    incremental: bool = True


def _check_delta(instance: IGEPAInstance, delta: Delta) -> None:
    """Validate every operation against the predecessor instance."""
    index = instance.index
    user_pos = index.user_pos
    event_pos = index.event_pos
    removed_users = set(delta.remove_users)
    removed_events = set(delta.remove_events)

    for user_id in removed_users:
        if user_id not in user_pos:
            raise DeltaError(f"cannot remove unknown user {user_id}")
    for event_id in removed_events:
        if event_id not in event_pos:
            raise DeltaError(f"cannot remove unknown event {event_id}")
    if len(removed_users) != len(delta.remove_users):
        raise DeltaError("duplicate user removals")
    if len(removed_events) != len(delta.remove_events):
        raise DeltaError("duplicate event removals")

    new_user_ids = [user.user_id for user in delta.add_users]
    if len(set(new_user_ids)) != len(new_user_ids):
        raise DeltaError("duplicate ids among added users")
    for user_id in new_user_ids:
        if user_id in user_pos:
            raise DeltaError(f"added user {user_id} already exists")
    new_event_ids = [event.event_id for event in delta.add_events]
    if len(set(new_event_ids)) != len(new_event_ids):
        raise DeltaError("duplicate ids among added events")
    for event_id in new_event_ids:
        if event_id in event_pos:
            raise DeltaError(f"added event {event_id} already exists")

    surviving_events = (set(event_pos) - removed_events) | set(new_event_ids)
    for user in delta.add_users:
        dangling = set(user.bids) - surviving_events
        if dangling:
            raise DeltaError(
                f"added user {user.user_id} bids for events {sorted(dangling)} "
                "that do not survive the delta"
            )

    seen_bid_removals: set[tuple[int, int]] = set()
    for user_id, event_id in delta.remove_bids:
        upos = user_pos.get(user_id)
        if upos is None or user_id in removed_users:
            raise DeltaError(
                f"remove_bids targets user {user_id}, which is not a "
                "surviving user of the delta"
            )
        vpos = event_pos.get(event_id)
        if vpos is None or not index.is_bid_pair(upos, vpos):
            raise DeltaError(
                f"remove_bids: user {user_id} has no bid for event {event_id}"
            )
        if (user_id, event_id) in seen_bid_removals:
            raise DeltaError(f"duplicate bid removal ({user_id}, {event_id})")
        seen_bid_removals.add((user_id, event_id))

    seen_bid_additions: set[tuple[int, int]] = set()
    for user_id, event_id in delta.add_bids:
        upos = user_pos.get(user_id)
        if upos is None or user_id in removed_users:
            raise DeltaError(
                f"add_bids targets user {user_id}, which is not a surviving "
                "user of the delta (bids of new users belong on their User)"
            )
        if event_id not in surviving_events:
            raise DeltaError(
                f"add_bids: event {event_id} does not survive the delta"
            )
        vpos = event_pos.get(event_id)
        already = (
            vpos is not None
            and index.is_bid_pair(upos, vpos)
            and (user_id, event_id) not in seen_bid_removals
        )
        if already or (user_id, event_id) in seen_bid_additions:
            raise DeltaError(
                f"add_bids: user {user_id} already bids for event {event_id}"
            )
        seen_bid_additions.add((user_id, event_id))

    if delta.add_conflicts or delta.remove_conflicts:
        if not isinstance(instance.conflict, MatrixConflict):
            raise DeltaError(
                "conflict additions/removals require a MatrixConflict "
                f"instance, got {type(instance.conflict).__name__}"
            )
        for first, second in (*delta.add_conflicts, *delta.remove_conflicts):
            if first == second:
                raise DeltaError(f"event {first} cannot conflict with itself")
            for event_id in (first, second):
                if event_id not in surviving_events:
                    raise DeltaError(
                        f"conflict edit references event {event_id}, which "
                        "does not survive the delta"
                    )
        # Against the predecessor's σ as its index holds it: a pair naming
        # an event the delta opens is never present there.
        conflict_bits = index.conflict_bits

        def present(first: int, second: int) -> bool:
            i = event_pos.get(first)
            j = event_pos.get(second)
            return i is not None and j is not None and bool(conflict_bits[i] >> j & 1)

        for edits, wanted, error in (
            (delta.add_conflicts, False, "already present"),
            (delta.remove_conflicts, True, "not present"),
        ):
            seen_pairs: set[tuple[int, int]] = set()
            for first, second in edits:
                pair = (min(first, second), max(first, second))
                if present(first, second) != wanted or pair in seen_pairs:
                    raise DeltaError(f"conflict ({first}, {second}) {error}")
                seen_pairs.add(pair)

    seen_user_caps: set[int] = set()
    for user_id, capacity in delta.set_user_capacity:
        if user_id not in user_pos or user_id in removed_users:
            raise DeltaError(
                f"set_user_capacity targets user {user_id}, which is not a "
                "surviving pre-existing user of the delta (new users carry "
                "their own capacity)"
            )
        if user_id in seen_user_caps:
            raise DeltaError(f"duplicate capacity change for user {user_id}")
        seen_user_caps.add(user_id)
        if capacity < 0:
            raise DeltaError(
                f"capacity for user {user_id} is {capacity}, expected >= 0"
            )
    seen_event_caps: set[int] = set()
    for event_id, capacity in delta.set_event_capacity:
        if event_id not in event_pos or event_id in removed_events:
            raise DeltaError(
                f"set_event_capacity targets event {event_id}, which is not "
                "a surviving pre-existing event of the delta (new events "
                "carry their own capacity)"
            )
        if event_id in seen_event_caps:
            raise DeltaError(f"duplicate capacity change for event {event_id}")
        seen_event_caps.add(event_id)
        if capacity < 0:
            raise DeltaError(
                f"capacity for event {event_id} is {capacity}, expected >= 0"
            )

    if delta.interest:
        if not isinstance(instance.interest, TabulatedInterest):
            raise DeltaError(
                "interest updates require a TabulatedInterest instance, got "
                f"{type(instance.interest).__name__}"
            )
        for event_id, user_id, value in delta.interest:
            if not 0.0 <= value <= 1.0:
                raise DeltaError(
                    f"interest for event {event_id}, user {user_id} is "
                    f"{value}, expected a value in [0, 1]"
                )
    if delta.degrees and not instance.has_degree_overrides:
        raise DeltaError(
            "degree overrides require an instance built with degree "
            "overrides (degrees_override is None)"
        )
    if delta.degrees:
        surviving_users = (
            set(user_pos) - removed_users
        ) | set(new_user_ids)
        for user_id, value in delta.degrees:
            if user_id not in surviving_users:
                raise DeltaError(
                    f"degree override for user {user_id}, which does not "
                    "survive the delta"
                )
            if not 0.0 <= value <= 1.0:
                raise DeltaError(
                    f"degree override for user {user_id} is {value}, "
                    "expected a value in [0, 1]"
                )


def _successor_social(instance: IGEPAInstance, delta: Delta) -> Graph:
    """The successor social graph (copied only when the user set changes)."""
    if not delta.add_users and not delta.remove_users:
        return instance.social
    social = instance.social.copy()
    for user_id in delta.remove_users:
        if social.has_node(user_id):
            social.remove_node(user_id)
    for user in delta.add_users:
        social.add_node(user.user_id)
    return social


@dataclass
class _PositionMaps:
    """Old-to-successor position bookkeeping shared by patch and carryover.

    ``user_map`` / ``event_map`` send old positions to successor positions
    (-1 for removed entities); survivors keep their relative order, so the
    first ``keep_users.sum()`` successor positions are exactly the old
    survivors.
    """

    keep_users: np.ndarray
    keep_events: np.ndarray
    user_map: np.ndarray
    event_map: np.ndarray


def _position_maps(old: InstanceIndex, delta: Delta) -> _PositionMaps:
    keep_users = np.ones(old.num_users, dtype=bool)
    keep_users[[old.user_pos[u] for u in delta.remove_users]] = False
    keep_events = np.ones(old.num_events, dtype=bool)
    keep_events[[old.event_pos[e] for e in delta.remove_events]] = False
    user_map = np.full(old.num_users, -1, dtype=np.int64)
    user_map[keep_users] = np.arange(int(keep_users.sum()), dtype=np.int64)
    event_map = np.full(old.num_events, -1, dtype=np.int64)
    event_map[keep_events] = np.arange(int(keep_events.sum()), dtype=np.int64)
    return _PositionMaps(keep_users, keep_events, user_map, event_map)


def _csr_entries(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, columns: np.ndarray
) -> np.ndarray:
    """The CSR entry of each ``(row, column)`` query (-1 if absent), by one
    scan of the queried rows; entries within a row must be distinct."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    query = np.repeat(np.arange(rows.size), lengths)
    offsets = np.arange(query.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    entries = np.repeat(starts, lengths) + offsets
    hit = indices[entries] == columns[query]
    found = np.full(rows.size, -1, dtype=np.int64)
    found[query[hit]] = entries[hit]
    return found


def _patch_components(
    instance: IGEPAInstance,
    delta: Delta,
    maps: _PositionMaps,
    *,
    entities: Callable[[int, int], tuple[Event, User]],
) -> dict:
    """Patch the predecessor's primary arrays into the successor's.

    Every surviving entry is copied bit for bit.  Spliced bids take the
    interest function's value (:func:`~repro.model.interest.pair_interest`,
    over the ``entities(event_id, user_id)`` the caller resolves, so this
    function never needs the successor), then the delta's interest entries
    are written through onto the successor's bids.  New events' conflict
    rows come from one ``matrix`` call on the predecessor's σ, then the
    delta's toggles apply.

    The patch is expressed at the CSR-entry level (``bid_indices`` /
    ``bid_si`` splicing; withdrawn bids and re-weighted pairs are located by
    one :func:`_csr_entries` lookup each), so its cost is O(bids + delta +
    |V|²) on either index: on a :class:`ShardedInstanceIndex` no O(cells)
    work happens at all — untouched users' CSR segments are copied
    wholesale by the vectorized splice.

    Returns the primary components minus ``degrees`` (built against the
    successor by the caller).
    """
    old = instance.index
    keep_users = maps.keep_users
    keep_events = maps.keep_events
    user_map = maps.user_map
    event_map = maps.event_map

    n_survivor_users = int(keep_users.sum())
    n_survivor_events = int(keep_events.sum())
    n_users = n_survivor_users + len(delta.add_users)
    n_events = n_survivor_events + len(delta.add_events)

    user_ids = np.concatenate(
        [
            old.user_ids[keep_users],
            np.fromiter(
                (u.user_id for u in delta.add_users),
                dtype=np.int64,
                count=len(delta.add_users),
            ),
        ]
    )
    event_ids = np.concatenate(
        [
            old.event_ids[keep_events],
            np.fromiter(
                (e.event_id for e in delta.add_events),
                dtype=np.int64,
                count=len(delta.add_events),
            ),
        ]
    )
    user_capacity = np.concatenate(
        [
            old.user_capacity[keep_users],
            np.fromiter(
                (u.capacity for u in delta.add_users),
                dtype=np.int64,
                count=len(delta.add_users),
            ),
        ]
    )
    event_capacity = np.concatenate(
        [
            old.event_capacity[keep_events],
            np.fromiter(
                (e.capacity for e in delta.add_events),
                dtype=np.int64,
                count=len(delta.add_events),
            ),
        ]
    )
    # Capacity changes overwrite the copied entries in place (concatenate
    # returned fresh arrays); the successor entities carry the same values,
    # so a from-scratch build produces identical int64 bits.
    for user_id, capacity in delta.set_user_capacity:
        user_capacity[user_map[old.user_pos[user_id]]] = capacity
    for event_id, capacity in delta.set_event_capacity:
        event_capacity[event_map[old.event_pos[event_id]]] = capacity
    event_pos = dict(zip(event_ids.tolist(), range(n_events)))

    # Conflict matrix: slice survivors, take new events' rows from one
    # matrix call on the predecessor's σ, then toggle the edited pairs.
    conflict_matrix = np.zeros((n_events, n_events), dtype=bool)
    conflict_matrix[:n_survivor_events, :n_survivor_events] = old.conflict_matrix[
        np.ix_(keep_events, keep_events)
    ]
    if delta.add_events:
        store = instance.store
        events = [store.event(row) for row in np.flatnonzero(keep_events).tolist()]
        events.extend(delta.add_events)
        rows = instance.conflict.matrix(events)[n_survivor_events:]
        conflict_matrix[n_survivor_events:] = rows
        conflict_matrix[:, n_survivor_events:] = rows.T
    for first, second in delta.remove_conflicts:
        i, j = event_pos[first], event_pos[second]
        conflict_matrix[i, j] = False
        conflict_matrix[j, i] = False
    for first, second in delta.add_conflicts:
        i, j = event_pos[first], event_pos[second]
        conflict_matrix[i, j] = True
        conflict_matrix[j, i] = True

    # CSR bid incidence: keep surviving entries (preserving each user's bid
    # order), splice appended bids of rewritten users, then append the new
    # users' rows.  SI values ride along entry for entry: survivors are
    # copied bit for bit, spliced bids take the interest function's value
    # (never the predecessor's column) until the entries below.
    old_entry_user = old.bid_user_positions
    old_entry_event = old.bid_indices
    keep_entries = keep_users[old_entry_user] & keep_events[old_entry_event]
    if delta.remove_bids:
        rows = np.array([old.user_pos[u] for u, _e in delta.remove_bids])
        columns = np.array([old.event_pos[e] for _u, e in delta.remove_bids])
        keep_entries[
            _csr_entries(old.bid_indptr, old_entry_event, rows, columns)
        ] = False

    kept_users_new = user_map[old_entry_user[keep_entries]]
    kept_events_new = event_map[old_entry_event[keep_entries]]
    kept_si = old.bid_si[keep_entries]
    counts = np.bincount(kept_users_new, minlength=n_users).astype(np.int64)

    # Added bids as (successor position, user id, event id): the survivors'
    # in delta order, then the new users' lists.  A stable sort by position
    # keeps each user's order; every bid lands at the end of its user's
    # kept row.
    added = [(int(user_map[old.user_pos[u]]), u, e) for u, e in delta.add_bids]
    added += [
        (n_survivor_users + k, user.user_id, e)
        for k, user in enumerate(delta.add_users)
        for e in user.bids
    ]
    added.sort(key=lambda bid: bid[0])
    add_upos = np.array([upos for upos, _u, _e in added], dtype=np.int64)
    row_ends = np.cumsum(counts)[add_upos]
    bid_indices = np.insert(
        kept_events_new, row_ends, [event_pos[e] for _p, _u, e in added]
    )
    bid_si = np.insert(
        kept_si,
        row_ends,
        pair_interest(
            instance.interest,
            [e for _p, _u, e in added],
            [u for _p, u, _e in added],
            lambda: (entities(e, u) for _p, u, e in added),
        ),
    )
    counts += np.bincount(add_upos, minlength=n_users)
    bid_indptr = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(counts, out=bid_indptr[1:])

    # Interest entries set the SI of the successor's bids, spliced or
    # surviving; an entry naming no successor bid stores nothing.
    if delta.interest:
        si_events, si_users, si_values = zip(*delta.interest)
        # Successor positions (-1 for ids that do not survive): survivors
        # through user_map, whose appended -1 catches unknown ids.
        added = {u.user_id: n_survivor_users + k for k, u in enumerate(delta.add_users)}
        survivor = np.append(user_map, -1)[
            [old.user_pos.get(u, -1) for u in si_users]
        ]
        upos = np.where(survivor >= 0, survivor, [added.get(u, -1) for u in si_users])
        vpos = np.array([event_pos.get(e, -1) for e in si_events], dtype=np.int64)
        valid = np.flatnonzero((upos >= 0) & (vpos >= 0))
        entries = _csr_entries(bid_indptr, bid_indices, upos[valid], vpos[valid])
        hit = entries >= 0
        # A later entry on a pair overwrites an earlier one.
        last, at = np.unique(entries[hit][::-1], return_index=True)
        bid_si[last] = np.array(si_values)[valid[hit]][::-1][at]

    return dict(
        user_ids=user_ids,
        event_ids=event_ids,
        user_capacity=user_capacity,
        event_capacity=event_capacity,
        conflict_matrix=conflict_matrix,
        bid_indptr=bid_indptr,
        bid_indices=bid_indices,
        bid_si=bid_si,
    )


def _successor_degrees(
    instance: IGEPAInstance, successor: IGEPAInstance, delta: Delta
) -> np.ndarray:
    """The successor index's degree vector.

    When the user set or the overrides change, run the constructor's own
    builder on the successor (O(|U|) lookups, no interest/conflict work) —
    one shared implementation, so the patched vector cannot drift from a
    from-scratch build.  Otherwise copy the predecessor's.
    """
    if delta.add_users or delta.remove_users or delta.degrees:
        return build_degrees(successor)
    return instance.index.degrees.copy()


def _index_from_components(
    successor: IGEPAInstance, components: dict
) -> BaseInstanceIndex:
    """Assemble the successor's index, of the implementation a
    from-scratch build of the successor would pick."""
    cls = index_class(
        components["user_ids"].size,
        components["event_ids"].size,
        successor._index_config,
    )
    patched = cls.from_components(successor, **components)
    sanitize_index(patched)
    return patched


def fresh_index_like(
    index: BaseInstanceIndex, instance: IGEPAInstance
) -> BaseInstanceIndex:
    """A from-scratch index of the same implementation."""
    return type(index)(instance)


def index_parity_mismatches(
    patched: BaseInstanceIndex, fresh: BaseInstanceIndex
) -> list[str]:
    """Names of index arrays where a patched and a fresh build disagree.

    The arrays compared are the implementation's ``PARITY_ARRAYS`` (the
    dense index adds ``SI``/``bid_mask``/``W`` to the common CSR set).
    Bit-identity is checked with ``np.array_equal`` on equal dtypes — for
    float arrays that is IEEE-754 equality, which the delta layer guarantees
    by copying surviving entries and recomputing new ones with the
    constructor's own expressions.  The conflict bitmasks (a tuple of
    Python ints, not an array) are compared as ``"conflict_bits"``.
    """
    if type(patched) is not type(fresh):
        return ["__class__"]
    mismatches = []
    for name in type(patched).PARITY_ARRAYS:
        a = getattr(patched, name)
        b = getattr(fresh, name)
        if a.dtype != b.dtype or a.shape != b.shape or not np.array_equal(a, b):
            mismatches.append(name)
    if patched.conflict_bits != fresh.conflict_bits:
        mismatches.append("conflict_bits")
    return mismatches


def _successor(
    instance: IGEPAInstance, delta: Delta, maps: _PositionMaps
) -> tuple[IGEPAInstance, dict]:
    """Build the successor instance by patching the predecessor's columns.

    No per-entity object is touched for surviving users: the successor's
    store is assembled from the patched component arrays (which double as
    the index's primary arrays, ``bid_si`` included), added entities come
    straight from the delta, and the successor keeps the predecessor's
    interest function unchanged.

    Returns the successor instance plus the patched components (sans
    degrees) for the caller to attach an index from.
    """
    store = instance.store
    social = _successor_social(instance, delta)

    # Entity objects for a non-table interest function's calls on spliced
    # bids: the delta's own, else views of the predecessor.
    added_users = {user.user_id: user for user in delta.add_users}
    added_events = {event.event_id: event for event in delta.add_events}
    pred_user_by_id = instance.user_by_id
    pred_event_by_id = instance.event_by_id

    def entities(event_id: int, user_id: int) -> tuple[Event, User]:
        return (
            added_events.get(event_id) or pred_event_by_id[event_id],
            added_users.get(user_id) or pred_user_by_id[user_id],
        )

    components = _patch_components(instance, delta, maps, entities=entities)

    # Degree-override column: splice the vector (added users the delta
    # gives no degree get 0.0, as in ColumnarStore.from_entities).
    store_degrees = None
    if store.degrees is not None:
        delta_degrees = dict(delta.degrees)
        added_values = np.fromiter(
            (delta_degrees.get(user.user_id, 0.0) for user in delta.add_users),
            dtype=np.float64,
            count=len(delta.add_users),
        )
        store_degrees = np.concatenate(
            [store.degrees[maps.keep_users], added_values]
        )
        for user_id, value in delta.degrees:
            row = store.user_pos.get(user_id)
            if row is not None and maps.keep_users[row]:
                store_degrees[maps.user_map[row]] = value

    event_start, event_duration = carry_temporal(
        store.event_start, store.event_duration, maps.keep_events, delta.add_events
    )
    successor_store = ColumnarStore(
        user_ids=components["user_ids"],
        user_capacity=components["user_capacity"],
        event_ids=components["event_ids"],
        event_capacity=components["event_capacity"],
        bid_indptr=components["bid_indptr"],
        bid_event_pos=components["bid_indices"],
        bid_si=components["bid_si"],
        degrees=store_degrees,
        user_attributes=carry_attributes(
            store.user_attributes,
            maps.keep_users,
            [user.attributes for user in delta.add_users],
        ),
        user_categories=carry_categories(
            store.user_categories,
            maps.keep_users,
            [user.categories for user in delta.add_users],
        ),
        event_attributes=carry_attributes(
            store.event_attributes,
            maps.keep_events,
            [event.attributes for event in delta.add_events],
        ),
        event_categories=carry_categories(
            store.event_categories,
            maps.keep_events,
            [event.categories for event in delta.add_events],
        ),
        event_start=event_start,
        event_duration=event_duration,
        conflict_matrix=components["conflict_matrix"],
    )

    # σ of a matrix-conflict successor is a view of the patched matrix: the
    # store holds the one copy, which the index shares as well.
    conflict = instance.conflict
    if isinstance(conflict, MatrixConflict):
        conflict = MatrixConflict.view(
            successor_store.event_ids,
            successor_store.conflict_matrix,
            successor_store.event_pos,
        )

    successor = IGEPAInstance.from_store(
        successor_store,
        conflict=conflict,
        interest=instance.interest,
        social=social,
        beta=instance.beta,
        name=instance.name,
        validate=False,
    )
    return successor, components


def _shed(
    index: BaseInstanceIndex,
    carried: Arrangement,
    held_u: np.ndarray,
    held_v: np.ndarray,
    changes: tuple[tuple[int, int], ...],
    by_event: bool,
) -> np.ndarray:
    """Indices into the held pairs that the event (``by_event``) or user
    capacity ``changes`` shed, in drop order: each target over its new
    capacity sheds that many lightest pairs, ties dropping the higher id of
    the other side, targets in delta order — one ``lexsort`` for all."""
    if by_event:
        owner, other, other_ids, pos = held_v, held_u, index.user_ids, index.event_pos
        counts, capacity = carried.attendance_counts, index.event_capacity
    else:
        owner, other, other_ids, pos = held_u, held_v, index.event_ids, index.user_pos
        counts, capacity = carried.load_counts, index.user_capacity
    targets = np.fromiter((pos[i] for i, _c in changes), np.int64, len(changes))
    over = counts[targets] - capacity[targets]
    group = np.full(counts.size, -1, dtype=np.int64)
    shrunk = np.flatnonzero(over > 0)
    group[targets[shrunk]] = shrunk
    held = np.flatnonzero(group[owner] >= 0)
    held_group = group[owner[held]]
    order = np.lexsort(
        (
            -other_ids[other[held]],
            index.pair_weights(held_u[held], held_v[held]),
            held_group,
        )
    )
    held, held_group = held[order], held_group[order]
    rank = np.arange(held.size) - np.searchsorted(held_group, held_group)
    return held[rank < over[held_group]]


def _carry_arrangement(
    instance: IGEPAInstance,
    successor: IGEPAInstance,
    arrangement: Arrangement,
    delta: Delta,
    maps: _PositionMaps,
) -> tuple[Arrangement, list[tuple[int, int]], set[int], set[int]]:
    """Carry the predecessor's pairs over, dropping whatever turned invalid.

    Invalidation sources: removed users/events, withdrawn bids, newly
    conflicting event pairs (for each affected user, the lighter pair of the
    two is dropped; ties drop the higher event id), and capacity shrinks —
    an event whose capacity fell below its carried attendance (or a user
    whose capacity fell below their carried load) sheds its lightest pairs
    until the tightened budget holds, ties dropping the higher user/event
    id.  The result is feasible by construction: every way a delta can
    tighten a Definition 4 constraint is resolved here, so repair always
    starts from a feasible arrangement.

    All array work: survivors are remapped through ``maps`` and checked
    against the successor's bid relation in one pass; added conflicts run
    in delta order (two that share a user see each other's drops), skip
    unless both events are attended (most name an event the same delta
    opens) and read co-attendance from the assignment word grid; capacity
    sheds are one grouped ``lexsort`` per side (:func:`_shed`), events
    first.  Drops are listed in that order.
    """
    old_index = instance.index
    index = successor.index

    old_upos, old_vpos = arrangement.assigned_positions()
    new_upos = maps.user_map[old_upos]
    new_vpos = maps.event_map[old_vpos]
    keep = (new_upos >= 0) & (new_vpos >= 0)
    # Withdrawn bids invalidate surviving-entity pairs.
    keep[keep] = index.pair_bid_mask(new_upos[keep], new_vpos[keep])

    dropped = list(
        zip(
            old_index.event_ids[old_vpos[~keep]].tolist(),
            old_index.user_ids[old_upos[~keep]].tolist(),
        )
    )
    carried = Arrangement.from_positions(successor, new_upos[keep], new_vpos[keep])

    def drop(upos: np.ndarray, vpos: np.ndarray) -> None:
        carried.remove_positions(upos, vpos)
        dropped.extend(
            zip(index.event_ids[vpos].tolist(), index.user_ids[upos].tolist())
        )

    if delta.add_conflicts:
        event_pos = index.event_pos
        pairs = delta.add_conflicts
        pa, pb = np.array([(event_pos[e], event_pos[f]) for e, f in pairs]).T
        # Attendance only falls, so a conflict whose events are not both
        # attended now finds no common user at its turn either.
        attended = carried.attendance_counts
        words = carried.assignment_words
        for k in np.flatnonzero((attended[pa] > 0) & (attended[pb] > 0)).tolist():
            first, second = pairs[k]
            a, b = int(pa[k]), int(pb[k])
            both = np.flatnonzero(
                (words[:, a >> 6] >> np.uint64(a & 63))
                & (words[:, b >> 6] >> np.uint64(b & 63))
                & np.uint64(1)
            )
            w_first = index.pair_weights(both, np.full(both.size, a))
            w_second = index.pair_weights(both, np.full(both.size, b))
            drop_first = (w_first < w_second) | (
                (w_first == w_second) & (first > second)
            )
            drop(both, np.where(drop_first, a, b))

    # Capacity shrinks shed the lightest pairs until the tightened budgets
    # hold, events first.
    if delta.set_event_capacity or delta.set_user_capacity:
        held_u, held_v = carried.assigned_positions()
        for by_event, changes in (
            (True, delta.set_event_capacity),
            (False, delta.set_user_capacity),
        ):
            shed = _shed(index, carried, held_u, held_v, changes, by_event)
            if shed.size:
                drop(held_u[shed], held_v[shed])
                alive = np.ones(held_u.size, dtype=bool)
                alive[shed] = False
                held_u, held_v = held_u[alive], held_v[alive]

    touched_users = {user_id for _event_id, user_id in dropped}
    touched_events = {event_id for event_id, _user_id in dropped}
    return carried, dropped, touched_users, touched_events


def coalesce_deltas(deltas: Sequence[Delta]) -> Delta:
    """Fold a sequence of deltas into one equivalent batch.

    The serving loop's micro-batcher groups several ingress operations —
    churn requests plus per-arrival registrations — into one tick, which
    must apply as a *single* delta.  Given deltas that would be valid
    applied sequentially from some instance, the coalesced delta is valid
    against that same instance and produces a successor whose index is
    bit-identical to the sequential application's
    (``tests/model/test_delta.py`` asserts this array by array).

    Folding rules (everything else concatenates in encounter order):

    * operations on entities *added within the window* fold into their
      :class:`User`/:class:`Event` objects — later bids, bid withdrawals
      and capacity changes rewrite the added object; removing a
      window-added entity erases it and every pending operation on it;
    * a bid **added then removed** within the window cancels; a bid
      **removed then re-added** keeps *both* operations — cancelling the
      pair would splice the bid back at its old list position, while the
      sequential application re-appends it at the end (``add_bids`` after
      an earlier removal of the same pair is explicitly legal);
    * a conflict **removed then re-added** (or added then removed) cancels
      — the relation is a set, so net-unchanged pairs need no edit;
    * conflict edits and bids referencing events that do not survive the
      window are dropped (the sequential application prunes them when the
      event closes; a coalesced delta carrying them would fail
      validation);
    * capacity changes on pre-window entities are last-wins;
    * ``interest`` entries survive in application order (a later entry on
      a pair wins), except that an entry is dropped when a later delta in
      the window adds its pair again: applied one by one, that add splices
      the interest function's value unless its own delta gives an entry.
      Entries naming no bid of the successor store nothing either way, and
      the add marks the pair's user and event touched as the entry did;
      ``degrees`` entries are filtered to users surviving the window.

    Raises:
        DeltaError: when an id removed within the window is re-added later
            in it (id reuse; the churn generator never emits this, and a
            coalesced delta cannot express it).
    """
    added_users: dict[int, User] = {}
    added_user_bids: dict[int, list[int]] = {}
    ever_added_users: set[int] = set()
    removed_users: list[int] = []
    removed_user_set: set[int] = set()
    added_events: dict[int, Event] = {}
    removed_events: list[int] = []
    removed_event_set: set[int] = set()
    add_bids: list[tuple[int, int]] = []
    remove_bids: list[tuple[int, int]] = []
    added_conflicts: list[tuple[int, int]] = []
    removed_conflicts: list[tuple[int, int]] = []
    user_caps: dict[int, int] = {}
    event_caps: dict[int, int] = {}
    # Each delta's interest entries with the delta's index, and the index
    # of the last delta adding each pair: an entry is kept unless a later
    # delta adds its pair again.
    interest: list[tuple[int, tuple[tuple[int, int, float], ...]]] = []
    last_added: dict[tuple[int, int], int] = {}
    degrees: list[tuple[int, float]] = []

    def drop_event_refs(event_id: int) -> None:
        """Prune pending operations referencing a closing event."""
        nonlocal add_bids, added_conflicts, removed_conflicts, added_user_bids
        add_bids = [pair for pair in add_bids if pair[1] != event_id]
        added_user_bids = {
            user_id: [e for e in bids if e != event_id]
            for user_id, bids in added_user_bids.items()
        }
        added_conflicts = [
            pair for pair in added_conflicts if event_id not in pair
        ]
        removed_conflicts = [
            pair for pair in removed_conflicts if event_id not in pair
        ]
        event_caps.pop(event_id, None)

    for k, delta in enumerate(deltas):
        for user_id, event_id in delta.remove_bids:
            if user_id in added_users:
                added_user_bids[user_id].remove(event_id)
            elif (user_id, event_id) in add_bids:
                # added-then-removed within the window: cancels
                add_bids.remove((user_id, event_id))
            else:
                remove_bids.append((user_id, event_id))
        for user_id, event_id in delta.add_bids:
            if user_id in added_users:
                added_user_bids[user_id].append(event_id)
            else:
                # kept even after a same-pair removal above: the sequential
                # application appends the re-added bid at the end of the
                # user's list, which is exactly what remove+add expresses
                add_bids.append((user_id, event_id))
        for user_id in delta.remove_users:
            if user_id in added_users:
                del added_users[user_id]
                del added_user_bids[user_id]
            else:
                removed_users.append(user_id)
                removed_user_set.add(user_id)
                add_bids[:] = [p for p in add_bids if p[0] != user_id]
                remove_bids[:] = [p for p in remove_bids if p[0] != user_id]
                user_caps.pop(user_id, None)
        for event_id in delta.remove_events:
            if event_id in added_events:
                del added_events[event_id]
            else:
                if event_id in removed_event_set:
                    raise DeltaError(
                        f"event {event_id} removed twice in one window "
                        "(id reuse cannot be coalesced)"
                    )
                removed_events.append(event_id)
                removed_event_set.add(event_id)
            drop_event_refs(event_id)
        for event in delta.add_events:
            if event.event_id in removed_event_set:
                raise DeltaError(
                    f"event id {event.event_id} reused within a coalescing "
                    "window"
                )
            added_events[event.event_id] = event
        for user in delta.add_users:
            if user.user_id in removed_user_set:
                raise DeltaError(
                    f"user id {user.user_id} reused within a coalescing "
                    "window"
                )
            added_users[user.user_id] = user
            added_user_bids[user.user_id] = list(user.bids)
            ever_added_users.add(user.user_id)
        for pair in delta.add_conflicts:
            mirror = (pair[1], pair[0])
            if pair in removed_conflicts or mirror in removed_conflicts:
                # removed-then-re-added: net unchanged against the base
                if pair in removed_conflicts:
                    removed_conflicts.remove(pair)
                else:
                    removed_conflicts.remove(mirror)
            else:
                added_conflicts.append(pair)
        for pair in delta.remove_conflicts:
            mirror = (pair[1], pair[0])
            if pair in added_conflicts or mirror in added_conflicts:
                # added-then-removed: net unchanged against the base
                if pair in added_conflicts:
                    added_conflicts.remove(pair)
                else:
                    added_conflicts.remove(mirror)
            else:
                removed_conflicts.append(pair)
        for user_id, capacity in delta.set_user_capacity:
            if user_id in added_users:
                added_users[user_id] = replace(
                    added_users[user_id], capacity=capacity
                )
            else:
                user_caps[user_id] = capacity
        for event_id, capacity in delta.set_event_capacity:
            if event_id in added_events:
                added_events[event_id] = replace(
                    added_events[event_id], capacity=capacity
                )
            else:
                event_caps[event_id] = capacity
        last_added.update(
            ((event_id, user_id), k) for user_id, event_id in delta.add_bids
        )
        last_added.update(
            ((event_id, user.user_id), k)
            for user in delta.add_users
            for event_id in user.bids
        )
        interest.append((k, delta.interest))
        degrees.extend(delta.degrees)

    def folded(user: User) -> User:
        """The window-added user with the window's bid edits; the same
        object when it has none (no re-validation)."""
        bids = tuple(added_user_bids[user.user_id])
        return user if bids == user.bids else replace(user, bids=bids)

    return Delta(
        add_users=tuple(folded(user) for user in added_users.values()),
        remove_users=tuple(removed_users),
        add_events=tuple(added_events.values()),
        remove_events=tuple(removed_events),
        add_bids=tuple(add_bids),
        remove_bids=tuple(remove_bids),
        add_conflicts=tuple(added_conflicts),
        remove_conflicts=tuple(removed_conflicts),
        set_user_capacity=tuple(user_caps.items()),
        set_event_capacity=tuple(event_caps.items()),
        interest=tuple(
            entry
            for k, entries in interest
            for entry in entries
            if last_added.get(entry[:2], k) <= k
        ),
        degrees=tuple(
            (user_id, value)
            for user_id, value in degrees
            # survivors: window-added users still present, or pre-window
            # users not removed (added-then-removed users are in neither)
            if user_id in added_users
            or (
                user_id not in removed_user_set
                and user_id not in ever_added_users
            )
        ),
    )


def apply_delta(
    instance: IGEPAInstance,
    delta: Delta,
    arrangement: Arrangement | None = None,
    *,
    incremental: bool = True,
) -> DeltaResult:
    """Apply one churn batch, patching the index and carrying the arrangement.

    Operations apply in a fixed order: bid removals, user removals, event
    removals (dropping surviving users' bids on them), event additions, user
    additions, bid additions, conflict edits, capacity changes, interest
    entries (written onto the successor's bids in its store's ``bid_si``
    column; see :attr:`Delta.interest`), degree overrides.  A bid
    removal may therefore target an event closing in the same delta, and bid
    additions (including new users' bid lists) may reference newly opened
    events.

    Args:
        instance: the predecessor instance (not mutated).
        delta: the churn batch; validated against the predecessor.
        arrangement: optional current arrangement to carry over; must belong
            to ``instance``.
        incremental: patch the predecessor's index arrays (the default).
            When False the successor instance is returned without an index —
            its first use builds one from scratch (the "full rebuild"
            comparison path of the replay driver and churn bench).

    Returns:
        A :class:`DeltaResult`; see its attribute docs.

    Raises:
        DeltaError: on invalid operations (unknown/duplicate ids, bids on
            non-surviving events, conflict edits on non-matrix conflict
            functions, ...).
    """
    if arrangement is not None and arrangement.instance is not instance:
        raise DeltaError("arrangement belongs to a different instance")
    _check_delta(instance, delta)

    # Patch the columns, never materialize entity objects for surviving
    # users.  The patched components double as the successor store and
    # (with degrees added) the index's primary arrays, so incremental=False
    # still hands the successor a store a from-scratch index build
    # reproduces bit for bit.
    maps = _position_maps(instance.index, delta)
    successor, components = _successor(instance, delta, maps)
    # The successor inherits the index configuration, so the patched and
    # the full-rebuild paths pick the same implementation (index_class).
    successor._index_config = instance._index_config
    if incremental:
        components["degrees"] = _successor_degrees(instance, successor, delta)
        successor._index = _index_from_components(successor, components)

    result = DeltaResult(
        instance=successor, arrangement=None, incremental=incremental
    )
    # Touched sets: entities whose local neighbourhood changed, independent
    # of the arrangement — repair scans these even when nothing was dropped.
    result.touched_users.update(user.user_id for user in delta.add_users)
    result.touched_users.update(user_id for user_id, _e in delta.add_bids)
    result.touched_events.update(event.event_id for event in delta.add_events)
    result.touched_events.update(event_id for _u, event_id in delta.add_bids)
    for user in delta.add_users:
        # A new user joins the bidder pool of every event they bid on —
        # those events must be rescanned (evict/refill) even when the delta
        # carries no interest entries for the pairs.
        result.touched_events.update(user.bids)
    old_index = instance.index
    for first, second in delta.remove_conflicts:
        for event_id in (first, second):
            result.touched_events.add(event_id)
            vpos = old_index.event_pos.get(event_id)
            if vpos is not None:
                result.touched_users.update(
                    int(u)
                    for u in old_index.user_ids[
                        old_index.event_bidder_positions(vpos)
                    ]
                )
    # Capacity changes: a raise opens room (add moves for the user, refill
    # over the event's bidder pool); a shrink sheds pairs, whose endpoints
    # join the touched sets through the carryover below.
    result.touched_users.update(user_id for user_id, _c in delta.set_user_capacity)
    result.touched_events.update(event_id for event_id, _c in delta.set_event_capacity)
    # Re-weightings change which moves are improving without changing the
    # entity sets: the affected users (and, for evict consideration, the
    # affected events) must be rescanned.
    result.touched_users.update(user_id for _e, user_id, _v in delta.interest)
    result.touched_events.update(event_id for event_id, _u, _v in delta.interest)
    for user_id, _value in delta.degrees:
        result.touched_users.add(user_id)
        upos = old_index.user_pos.get(user_id)
        if upos is not None:  # a degree change re-weights every bid pair
            result.touched_events.update(
                int(e)
                for e in old_index.event_ids[old_index.user_bid_positions(upos)]
            )

    if arrangement is not None:
        carried, dropped, drop_users, drop_events = _carry_arrangement(
            instance, successor, arrangement, delta, maps
        )
        result.arrangement = carried
        result.dropped_pairs = dropped
        result.touched_users |= drop_users
        result.touched_events |= drop_events

    # Clamp to entities that exist in the successor.
    result.touched_users &= successor.user_by_id.keys()
    result.touched_events &= successor.event_by_id.keys()
    return result
