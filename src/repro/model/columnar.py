"""The columnar instance store: entities as contiguous arrays, not objects.

Every :class:`~repro.model.instance.IGEPAInstance` is backed by one
:class:`ColumnarStore`.  Entity objects (:mod:`repro.model.entities`) cost a
Python object plus a ``__dict__``, an attribute array and a bid tuple per
user; at |U| ≥ 500k such a layer alone costs hundreds of megabytes.  The
store holds the arrays-first representation the indexes already want:

* ``user_ids`` / ``user_capacity`` — contiguous ``int64`` vectors;
* ``bid_indptr`` / ``bid_event_pos`` — the bid relation as a CSR over user
  rows, event *positions* (not ids) as column indices, in each user's
  bid-list order;
* ``bid_si`` — optional per-bid-entry interest values aligned with
  ``bid_event_pos`` (the synthetic generator samples them array-natively);
* ``degrees`` — optional per-user ``D(G, u)`` override vector;
* ``event_*`` columns, including NaN-coded ``event_start``/``event_duration``
  temporal attributes;
* ``conflict_matrix`` — optional boolean σ over event positions, letting the
  index build skip the conflict function's per-pair loop.

Attribute vectors and category sets are stored only when any entity has
them (``None`` columns mean "empty everywhere"), so the common synthetic
workloads pay nothing for features they do not use.

The public entity API survives through **lazily materialized views**:
:class:`UserView` / :class:`EventView` are ``__slots__`` façades over a row
offset — ~56 bytes each, created on demand and never retained by the store —
that duck-type :class:`~repro.model.entities.User` / ``Event`` (same fields,
same equality and hashing).  :class:`UserColumn` / :class:`EventColumn` are
the sequences ``IGEPAInstance.users`` / ``.events`` expose; indexing or
iterating them creates views, holding one never costs ``O(|U|)``.

Columns beyond a caller-set budget can **spill** to memory-mapped ``.npy``
files (:meth:`ColumnarStore.maybe_spill`): the large per-user and per-bid
vectors are rewritten to disk in bounded chunks and re-opened with
``mmap_mode="r"``, so a 500k-user store's resident footprint shrinks to the
event-side columns while every reader keeps working unchanged.
"""

from __future__ import annotations

from collections.abc import Iterator, KeysView, Mapping, Sequence
from pathlib import Path

import numpy as np

from repro.model.entities import Event, User
from repro.model.errors import InstanceValidationError
from repro.model.interest import TabulatedInterest

#: Shared zero-length attribute vector returned by views of entities without
#: attributes — one allocation for the whole process, mirroring the entity
#: dataclasses' per-object ``np.empty(0)`` default at none of the cost.
_EMPTY_ATTRIBUTES = np.empty(0, dtype=np.float64)
_EMPTY_ATTRIBUTES.setflags(write=False)

_EMPTY_CATEGORIES: frozenset[str] = frozenset()

#: Entries copied per chunk when spilling a column to its ``.npy`` backing.
_SPILL_CHUNK = 1 << 20

#: Store columns eligible for spill: the O(|U|) and O(bids) vectors.  The
#: event-side columns and the conflict matrix stay resident — they are
#: O(|V|) / O(|V|²) with |V| orders of magnitude below |U| by design.
_SPILLABLE = (
    "user_ids",
    "user_capacity",
    "bid_indptr",
    "bid_event_pos",
    "bid_si",
    "degrees",
)


def _as_id_array(values: np.ndarray | Sequence[int], name: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {array.shape}")
    return array


def _pack_attributes(
    entities: Sequence[User] | Sequence[Event], count: int
) -> np.ndarray | list[np.ndarray] | None:
    """Attribute column: ``None`` (all empty), a 2-D array (uniform length),
    or a list of 1-D arrays (ragged)."""
    vectors = [e.attributes for e in entities]
    if not vectors or all(v.size == 0 for v in vectors):
        return None
    sizes = {v.size for v in vectors}
    if len(sizes) == 1:
        packed = np.empty((count, sizes.pop()), dtype=np.float64)
        for i, vector in enumerate(vectors):
            packed[i] = vector
        return packed
    return [np.asarray(v, dtype=np.float64) for v in vectors]


def _pack_categories(
    entities: Sequence[User] | Sequence[Event],
) -> tuple[frozenset[str], ...] | None:
    """Category column: ``None`` (all empty) or a tuple of frozensets."""
    sets = [e.categories for e in entities]
    if not sets or all(not s for s in sets):
        return None
    return tuple(frozenset(s) for s in sets)


def carry_attributes(
    column: np.ndarray | list[np.ndarray] | None,
    keep: np.ndarray,
    added: Sequence[np.ndarray],
) -> np.ndarray | list[np.ndarray] | None:
    """Carry an attribute column through a delta patch.

    ``keep`` masks surviving rows; ``added`` holds the attribute vectors of
    appended entities.  Preserves the column's ``None`` / 2-D / ragged-list
    encoding (collapsing back to ``None`` when everything is empty).
    """
    added_vectors = [np.asarray(a, dtype=np.float64) for a in added]
    if column is None:
        if all(a.size == 0 for a in added_vectors):
            return None
        survivors = [_EMPTY_ATTRIBUTES] * int(keep.sum())
    elif isinstance(column, np.ndarray):
        kept = column[keep]
        if not added_vectors:
            return kept
        if {kept.shape[1]} == {a.size for a in added_vectors}:
            return np.vstack([kept] + [a[None, :] for a in added_vectors])
        survivors = list(kept)
    else:
        survivors = [vector for vector, k in zip(column, keep) if k]
    result = survivors + added_vectors
    if all(vector.size == 0 for vector in result):
        return None
    return result


def carry_categories(
    column: Sequence[frozenset[str]] | None,
    keep: np.ndarray,
    added: Sequence[frozenset[str]],
) -> tuple[frozenset[str], ...] | None:
    """Carry a category column through a delta patch (see carry_attributes)."""
    added_sets = [frozenset(s) for s in added]
    if column is None:
        if not any(added_sets):
            return None
        survivors = [_EMPTY_CATEGORIES] * int(keep.sum())
    else:
        survivors = [sets for sets, k in zip(column, keep) if k]
    result = tuple(survivors + added_sets)
    return result if any(result) else None


def carry_temporal(
    start: np.ndarray | None,
    duration: np.ndarray | None,
    keep: np.ndarray,
    added_events: Sequence[Event],
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Carry the NaN-coded temporal columns through a delta patch."""
    has_added = any(e.start_time is not None for e in added_events)
    if start is None and not has_added:
        return None, None
    survivors = int(keep.sum())
    base_start = (
        start[keep] if start is not None else np.full(survivors, np.nan)
    )
    base_duration = (
        duration[keep] if duration is not None else np.full(survivors, np.nan)
    )
    add_start = np.array(
        [
            np.nan if e.start_time is None else float(e.start_time)
            for e in added_events
        ],
        dtype=np.float64,
    )
    add_duration = np.array(
        [np.nan if e.duration is None else float(e.duration) for e in added_events],
        dtype=np.float64,
    )
    return (
        np.concatenate([base_start, add_start]),
        np.concatenate([base_duration, add_duration]),
    )


class UserView:
    """A frozen, ``__slots__`` façade over one user row of a store.

    Duck-types :class:`~repro.model.entities.User`: same field names, same
    value equality (including against real ``User`` objects) and the same
    ``hash(("user", user_id))``, so views interoperate in sets and dicts.
    Views carry no per-instance ``__dict__`` — memory per view is O(1).
    """

    __slots__ = ("_store", "_row")

    def __init__(self, store: "ColumnarStore", row: int) -> None:
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "_row", row)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"UserView is immutable; cannot set {name!r}")

    @property
    def user_id(self) -> int:
        return int(self._store.user_ids[self._row])

    @property
    def capacity(self) -> int:
        return int(self._store.user_capacity[self._row])

    @property
    def attributes(self) -> np.ndarray:
        return self._store._user_attributes(self._row)

    @property
    def bids(self) -> tuple[int, ...]:
        return self._store.user_bids(self._row)

    @property
    def categories(self) -> frozenset[str]:
        return self._store._user_categories(self._row)

    @property
    def bid_set(self) -> frozenset[int]:
        return frozenset(self.bids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (UserView, User)):
            return NotImplemented
        return (
            self.user_id == other.user_id
            and self.capacity == other.capacity
            and np.array_equal(self.attributes, other.attributes)
            and self.bids == other.bids
            and self.categories == other.categories
        )

    def __hash__(self) -> int:
        return hash(("user", self.user_id))

    def __repr__(self) -> str:
        return (
            f"UserView(user_id={self.user_id}, capacity={self.capacity}, "
            f"bids={self.bids})"
        )


class EventView:
    """A frozen, ``__slots__`` façade over one event row of a store.

    Duck-types :class:`~repro.model.entities.Event` the way
    :class:`UserView` duck-types ``User``.
    """

    __slots__ = ("_store", "_row")

    def __init__(self, store: "ColumnarStore", row: int) -> None:
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "_row", row)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"EventView is immutable; cannot set {name!r}")

    @property
    def event_id(self) -> int:
        return int(self._store.event_ids[self._row])

    @property
    def capacity(self) -> int:
        return int(self._store.event_capacity[self._row])

    @property
    def attributes(self) -> np.ndarray:
        return self._store._event_attributes(self._row)

    @property
    def start_time(self) -> float | None:
        starts = self._store.event_start
        if starts is None:
            return None
        value = float(starts[self._row])
        return None if np.isnan(value) else value

    @property
    def duration(self) -> float | None:
        durations = self._store.event_duration
        if durations is None:
            return None
        value = float(durations[self._row])
        return None if np.isnan(value) else value

    @property
    def end_time(self) -> float | None:
        start = self.start_time
        duration = self.duration
        if start is None or duration is None:
            return None
        return start + duration

    @property
    def categories(self) -> frozenset[str]:
        return self._store._event_categories(self._row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EventView, Event)):
            return NotImplemented
        return (
            self.event_id == other.event_id
            and self.capacity == other.capacity
            and np.array_equal(self.attributes, other.attributes)
            and self.start_time == other.start_time
            and self.duration == other.duration
            and self.categories == other.categories
        )

    def __hash__(self) -> int:
        return hash(("event", self.event_id))

    def __repr__(self) -> str:
        return f"EventView(event_id={self.event_id}, capacity={self.capacity})"


class _ViewColumn(Sequence):
    """Sequence protocol over a store dimension, materializing views lazily."""

    __slots__ = ("_store",)
    _view = None  # subclass: view class
    _size_attr = ""

    def __init__(self, store: "ColumnarStore") -> None:
        self._store = store

    def __len__(self) -> int:
        return int(getattr(self._store, self._size_attr))

    def __getitem__(self, item: int | slice) -> object:
        n = len(self)
        if isinstance(item, slice):
            return [self._view(self._store, row) for row in range(*item.indices(n))]
        row = int(item)
        if row < 0:
            row += n
        if not 0 <= row < n:
            raise IndexError(item)
        return self._view(self._store, row)

    def __iter__(self) -> Iterator[object]:
        store = self._store
        view = self._view
        for row in range(len(self)):
            yield view(store, row)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"


class UserColumn(_ViewColumn):
    """``instance.users``: lazy :class:`UserView` rows."""

    __slots__ = ()
    _view = UserView
    _size_attr = "num_users"


class EventColumn(_ViewColumn):
    """``instance.events``: lazy :class:`EventView` rows."""

    __slots__ = ()
    _view = EventView
    _size_attr = "num_events"


class IdViewMap(Mapping):
    """``IGEPAInstance.user_by_id`` / ``event_by_id``.

    A read-only mapping from entity id to a freshly created view — O(1)
    memory, O(1) lookup through the store's position map, never an O(|U|)
    dict of objects.
    """

    __slots__ = ("_store", "_kind")

    def __init__(self, store: "ColumnarStore", kind: str) -> None:
        self._store = store
        self._kind = kind

    def _positions(self) -> dict[int, int]:
        return (
            self._store.user_pos if self._kind == "user" else self._store.event_pos
        )

    def __getitem__(self, key: int) -> UserView | EventView:
        position = self._positions().get(key)
        if position is None:
            raise KeyError(key)
        store = self._store
        return (
            UserView(store, position)
            if self._kind == "user"
            else EventView(store, position)
        )

    def __iter__(self) -> Iterator[int]:
        ids = (
            self._store.user_ids if self._kind == "user" else self._store.event_ids
        )
        return iter(ids.tolist())

    def __len__(self) -> int:
        return (
            self._store.num_users if self._kind == "user" else self._store.num_events
        )

    def __contains__(self, key: object) -> bool:
        return key in self._positions()

    def keys(self) -> KeysView[int]:
        # The position dict's native keys view, so set operations
        # (``touched &= mapping.keys()``) run at C speed instead of through
        # the ABC mixin's generator-backed view.
        return self._positions().keys()


class ColumnarStore:
    """Contiguous columns for one instance's users, events and bids.

    Args:
        user_ids / user_capacity: per-user ``int64`` vectors (equal length).
        event_ids / event_capacity: per-event ``int64`` vectors.
        bid_indptr: CSR offsets over user rows (``num_users + 1`` entries).
        bid_event_pos: event *positions* per bid entry, in each user's
            bid-list order.
        bid_si: optional SI value per bid entry (in ``[0, 1]``).
        degrees: optional ``D(G, u)`` override vector.
        user_attributes / event_attributes: ``None``, a 2-D float array, or
            a list of 1-D arrays (ragged).
        user_categories / event_categories: ``None`` or a sequence of
            frozensets.
        event_start / event_duration: optional NaN-coded temporal columns
            (both or neither).
        conflict_matrix: optional boolean σ over event positions; when
            present it must equal what the instance's conflict function
            would produce (generators that sample the relation write both
            from the same draw).
    """

    __slots__ = (
        "user_ids",
        "user_capacity",
        "user_attributes",
        "user_categories",
        "event_ids",
        "event_capacity",
        "event_attributes",
        "event_categories",
        "event_start",
        "event_duration",
        "bid_indptr",
        "bid_event_pos",
        "bid_si",
        "degrees",
        "conflict_matrix",
        "spilled_bytes",
        "_spill_dir",
        "_user_pos",
        "_event_pos",
    )

    def __init__(
        self,
        *,
        user_ids: np.ndarray | Sequence[int],
        user_capacity: np.ndarray | Sequence[int],
        event_ids: np.ndarray | Sequence[int],
        event_capacity: np.ndarray | Sequence[int],
        bid_indptr: np.ndarray | Sequence[int],
        bid_event_pos: np.ndarray | Sequence[int],
        bid_si: np.ndarray | Sequence[float] | None = None,
        degrees: np.ndarray | Sequence[float] | None = None,
        user_attributes: np.ndarray | list[np.ndarray] | None = None,
        user_categories: Sequence[frozenset[str]] | None = None,
        event_attributes: np.ndarray | list[np.ndarray] | None = None,
        event_categories: Sequence[frozenset[str]] | None = None,
        event_start: np.ndarray | Sequence[float] | None = None,
        event_duration: np.ndarray | Sequence[float] | None = None,
        conflict_matrix: np.ndarray | None = None,
    ) -> None:
        self.user_ids = _as_id_array(user_ids, "user_ids")
        self.user_capacity = _as_id_array(user_capacity, "user_capacity")
        self.event_ids = _as_id_array(event_ids, "event_ids")
        self.event_capacity = _as_id_array(event_capacity, "event_capacity")
        self.bid_indptr = _as_id_array(bid_indptr, "bid_indptr")
        self.bid_event_pos = _as_id_array(bid_event_pos, "bid_event_pos")
        self.bid_si = (
            None if bid_si is None else np.asarray(bid_si, dtype=np.float64)
        )
        self.degrees = (
            None if degrees is None else np.asarray(degrees, dtype=np.float64)
        )
        self.user_attributes = user_attributes
        self.user_categories = user_categories
        self.event_attributes = event_attributes
        self.event_categories = event_categories
        self.event_start = (
            None if event_start is None else np.asarray(event_start, dtype=np.float64)
        )
        self.event_duration = (
            None
            if event_duration is None
            else np.asarray(event_duration, dtype=np.float64)
        )
        self.conflict_matrix = conflict_matrix
        self.spilled_bytes = 0
        self._spill_dir = None
        self._user_pos: dict[int, int] | None = None
        self._event_pos: dict[int, int] | None = None

        if self.user_capacity.size != self.num_users:
            raise ValueError("user_capacity length mismatch")
        if self.event_capacity.size != self.num_events:
            raise ValueError("event_capacity length mismatch")
        if self.bid_indptr.size != self.num_users + 1:
            raise ValueError("bid_indptr must have num_users + 1 entries")
        if self.bid_indptr.size and int(self.bid_indptr[-1]) != self.num_bids:
            raise ValueError("bid_indptr does not cover bid_event_pos")
        if self.bid_si is not None and self.bid_si.size != self.num_bids:
            raise ValueError("bid_si length mismatch")
        if self.degrees is not None and self.degrees.size != self.num_users:
            raise ValueError("degrees length mismatch")
        if (self.event_start is None) != (self.event_duration is None):
            raise ValueError("event_start and event_duration must be set together")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_entities(
        cls,
        users: Sequence[User],
        events: Sequence[Event],
        degrees: Mapping[int, float] | None = None,
    ) -> "ColumnarStore":
        """Build the columns from entity objects in one vectorized pass.

        Bids are mapped to event positions with a sort + binary search over
        the event ids — no per-bid dict lookups.  Bids referencing unknown
        events raise :class:`InstanceValidationError` ("user U bids for
        unknown events [...]").  ``degrees`` keys of unknown users are
        dropped; users without a key get 0.0.
        """
        users = list(users) if not isinstance(users, (list, tuple)) else users
        events = list(events) if not isinstance(events, (list, tuple)) else events
        num_users = len(users)
        num_events = len(events)

        user_ids = np.fromiter(
            (u.user_id for u in users), dtype=np.int64, count=num_users
        )
        user_capacity = np.fromiter(
            (u.capacity for u in users), dtype=np.int64, count=num_users
        )
        event_ids = np.fromiter(
            (e.event_id for e in events), dtype=np.int64, count=num_events
        )
        event_capacity = np.fromiter(
            (e.capacity for e in events), dtype=np.int64, count=num_events
        )

        bid_counts = np.fromiter(
            (len(u.bids) for u in users), dtype=np.int64, count=num_users
        )
        bid_indptr = np.zeros(num_users + 1, dtype=np.int64)
        np.cumsum(bid_counts, out=bid_indptr[1:])
        num_bids = int(bid_indptr[-1])
        flat_bids = np.fromiter(
            (b for u in users for b in u.bids), dtype=np.int64, count=num_bids
        )

        if num_bids:
            order = np.argsort(event_ids, kind="stable")
            sorted_ids = event_ids[order]
            slots = np.searchsorted(sorted_ids, flat_bids)
            clipped = np.minimum(slots, max(0, num_events - 1))
            if num_events:
                found = sorted_ids[clipped] == flat_bids
            else:
                found = np.zeros(num_bids, dtype=bool)
            if not found.all():
                entry = int(np.flatnonzero(~found)[0])
                row = int(np.searchsorted(bid_indptr, entry, side="right")) - 1
                row_bad = flat_bids[bid_indptr[row] : bid_indptr[row + 1]]
                known = set(event_ids.tolist())
                dangling = sorted(set(row_bad.tolist()) - known)
                raise InstanceValidationError(
                    f"user {int(user_ids[row])} bids for unknown events {dangling}"
                )
            bid_event_pos = order[clipped]
        else:
            bid_event_pos = np.empty(0, dtype=np.int64)

        starts = [e.start_time for e in events]
        if any(s is not None for s in starts):
            event_start = np.array(
                [np.nan if s is None else float(s) for s in starts],
                dtype=np.float64,
            )
            event_duration = np.array(
                [
                    np.nan if e.duration is None else float(e.duration)
                    for e in events
                ],
                dtype=np.float64,
            )
        else:
            event_start = None
            event_duration = None

        degrees_column = None
        if degrees is not None:
            override_get = degrees.get
            degrees_column = np.fromiter(
                (override_get(uid, 0.0) for uid in user_ids.tolist()),
                dtype=np.float64,
                count=num_users,
            )

        return cls(
            user_ids=user_ids,
            user_capacity=user_capacity,
            event_ids=event_ids,
            event_capacity=event_capacity,
            bid_indptr=bid_indptr,
            bid_event_pos=bid_event_pos,
            degrees=degrees_column,
            user_attributes=_pack_attributes(users, num_users),
            user_categories=_pack_categories(users),
            event_attributes=_pack_attributes(events, num_events),
            event_categories=_pack_categories(events),
            event_start=event_start,
            event_duration=event_duration,
        )

    # ------------------------------------------------------------------
    # Sizes and position maps
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return self.user_ids.size

    @property
    def num_events(self) -> int:
        return self.event_ids.size

    @property
    def num_bids(self) -> int:
        return self.bid_event_pos.size

    @property
    def user_pos(self) -> dict[int, int]:
        """``user_id -> row`` (built lazily once)."""
        if self._user_pos is None:
            self._user_pos = {
                int(u): i for i, u in enumerate(self.user_ids.tolist())
            }
        return self._user_pos

    @property
    def event_pos(self) -> dict[int, int]:
        """``event_id -> row`` (built lazily once)."""
        if self._event_pos is None:
            self._event_pos = {
                int(e): j for j, e in enumerate(self.event_ids.tolist())
            }
        return self._event_pos

    # ------------------------------------------------------------------
    # Row accessors (view support)
    # ------------------------------------------------------------------
    def user(self, row: int) -> UserView:
        return UserView(self, row)

    def event(self, row: int) -> EventView:
        return EventView(self, row)

    def user_bids(self, row: int) -> tuple[int, ...]:
        """The user's bid list as event ids, in stored (bid-list) order."""
        lo, hi = self.bid_indptr[row : row + 2].tolist()
        return tuple(self.event_ids[self.bid_event_pos[lo:hi]].tolist())

    def bid_lists(self) -> list[list[int]]:
        """Every user's bid list as event ids, row by row — one CSR pass
        for callers that read all users' bids."""
        bid_ids = self.event_ids[self.bid_event_pos].tolist()
        bounds = self.bid_indptr.tolist()
        return [bid_ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def _aux_vector(
        self, column: np.ndarray | list[np.ndarray] | None, row: int
    ) -> np.ndarray:
        if column is None:
            return _EMPTY_ATTRIBUTES
        if isinstance(column, np.ndarray):
            return column[row]
        return column[row]

    def _user_attributes(self, row: int) -> np.ndarray:
        return self._aux_vector(self.user_attributes, row)

    def _event_attributes(self, row: int) -> np.ndarray:
        return self._aux_vector(self.event_attributes, row)

    def _user_categories(self, row: int) -> frozenset[str]:
        if self.user_categories is None:
            return _EMPTY_CATEGORIES
        return self.user_categories[row]

    def _event_categories(self, row: int) -> frozenset[str]:
        if self.event_categories is None:
            return _EMPTY_CATEGORIES
        return self.event_categories[row]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural checks as single vectorized passes.

        The structural checks of every instance: unique ids, non-negative
        capacities, bid positions in range, no duplicate bids per user,
        SI/degree values in ``[0, 1]``, temporal columns well-formed.

        Raises:
            InstanceValidationError: on the first violated check.
        """
        if np.unique(self.event_ids).size != self.num_events:
            raise InstanceValidationError("duplicate event ids")
        if np.unique(self.user_ids).size != self.num_users:
            raise InstanceValidationError("duplicate user ids")
        if self.num_users and int(self.user_capacity.min()) < 0:
            row = int(np.argmin(self.user_capacity))
            raise InstanceValidationError(
                f"user {int(self.user_ids[row])}: capacity must be >= 0"
            )
        if self.num_events and int(self.event_capacity.min()) < 0:
            row = int(np.argmin(self.event_capacity))
            raise InstanceValidationError(
                f"event {int(self.event_ids[row])}: capacity must be >= 0"
            )
        if np.any(np.diff(self.bid_indptr) < 0) or (
            self.bid_indptr.size and int(self.bid_indptr[0]) != 0
        ):
            raise InstanceValidationError("bid_indptr is not monotone from 0")
        if self.num_bids:
            if int(self.bid_event_pos.min()) < 0 or int(
                self.bid_event_pos.max()
            ) >= max(1, self.num_events):
                raise InstanceValidationError(
                    "bid entries reference event positions out of range"
                )
            # Duplicate bids within a row: sort (row, position) keys once.
            rows = np.repeat(
                np.arange(self.num_users, dtype=np.int64),
                np.diff(self.bid_indptr),
            )
            keys = rows * np.int64(max(1, self.num_events)) + self.bid_event_pos
            sorted_keys = np.sort(keys)
            duplicate = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
            if duplicate.size:
                row = int(sorted_keys[int(duplicate[0])]) // max(1, self.num_events)
                raise InstanceValidationError(
                    f"user {int(self.user_ids[row])}: duplicate bids "
                    f"{self.user_bids(row)}"
                )
        if self.bid_si is not None and self.bid_si.size:
            if float(self.bid_si.min()) < 0.0 or float(self.bid_si.max()) > 1.0:
                raise InstanceValidationError(
                    "bid interest values outside [0, 1]"
                )
        if self.degrees is not None and self.degrees.size:
            if float(self.degrees.min()) < 0.0 or float(self.degrees.max()) > 1.0:
                bad_rows = np.flatnonzero(
                    (self.degrees < 0.0) | (self.degrees > 1.0)
                )[:3]
                bad = {
                    int(self.user_ids[r]): float(self.degrees[r])
                    for r in bad_rows.tolist()
                }
                raise InstanceValidationError(
                    f"degree overrides outside [0, 1]: {bad}"
                )
        if self.event_start is not None:
            unset = np.isnan(self.event_start) != np.isnan(self.event_duration)
            if np.any(unset):
                row = int(np.flatnonzero(unset)[0])
                raise InstanceValidationError(
                    f"event {int(self.event_ids[row])}: start_time and "
                    "duration must be set together"
                )
            with np.errstate(invalid="ignore"):
                nonpositive = self.event_duration <= 0
            if np.any(nonpositive):
                row = int(np.flatnonzero(nonpositive)[0])
                raise InstanceValidationError(
                    f"event {int(self.event_ids[row])}: duration must be > 0"
                )

    # ------------------------------------------------------------------
    # Memory accounting and spill
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Resident bytes of the array columns (mmap-backed columns count 0)."""
        total = 0
        for name in (
            "user_ids",
            "user_capacity",
            "event_ids",
            "event_capacity",
            "bid_indptr",
            "bid_event_pos",
            "bid_si",
            "degrees",
            "event_start",
            "event_duration",
            "conflict_matrix",
        ):
            column = getattr(self, name)
            if isinstance(column, np.memmap):
                continue
            if isinstance(column, np.ndarray):
                total += column.nbytes
        for column in (self.user_attributes, self.event_attributes):
            if isinstance(column, np.ndarray):
                total += column.nbytes
            elif isinstance(column, list):
                total += sum(v.nbytes for v in column)
        return total

    def spill(self, directory: str | Path) -> int:
        """Rewrite the large columns to ``.npy`` files and re-open memory-mapped.

        Each column is copied in bounded chunks (never a second full-size
        resident copy) and replaced by a read-only ``np.memmap``; readers are
        unaffected.  Returns the bytes moved to disk (also accumulated on
        :attr:`spilled_bytes`).  Idempotent — already-spilled columns are
        skipped.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self._spill_dir = directory
        moved = 0
        for name in _SPILLABLE:
            column = getattr(self, name)
            if column is None or isinstance(column, np.memmap):
                continue
            path = directory / f"{name}.npy"
            target = np.lib.format.open_memmap(
                path, mode="w+", dtype=column.dtype, shape=column.shape
            )
            for start in range(0, column.size, _SPILL_CHUNK):
                stop = min(start + _SPILL_CHUNK, column.size)
                target[start:stop] = column[start:stop]
            target.flush()
            del target
            setattr(self, name, np.load(path, mmap_mode="r"))
            moved += column.nbytes
        self.spilled_bytes += moved
        return moved

    def maybe_spill(self, budget_bytes: int, directory: str | Path) -> int:
        """Spill iff the resident columns exceed ``budget_bytes``.

        The RSS-budget knob of the 500k pipeline: callers pass the budget
        they can afford for the instance layer; under it, nothing happens.
        Returns the bytes spilled (0 when under budget).
        """
        if self.nbytes <= budget_bytes:
            return 0
        return self.spill(directory)

    def __repr__(self) -> str:
        return (
            f"ColumnarStore(users={self.num_users}, events={self.num_events}, "
            f"bids={self.num_bids}, resident={self.nbytes} bytes, "
            f"spilled={self.spilled_bytes} bytes)"
        )


class ColumnarInterest(TabulatedInterest):
    """Tabulated interest backed by the store's ``bid_si`` column.

    A drop-in :class:`~repro.model.interest.TabulatedInterest` (isinstance
    checks in the churn/delta layers keep passing) that never materializes
    the ``(event_id, user_id) -> value`` dict on the hot path: lookups
    resolve through the CSR, and :meth:`items` builds the dict lazily only
    for callers that genuinely need it (serialization, tests).

    Two deliberate divergences from the dict-backed table, both invisible to
    feasible arrangements (which only query bid pairs): values of withdrawn
    bids are not retained across deltas, and non-bid entries live in the
    small ``extra`` side table instead of the main storage.
    """

    def __init__(
        self,
        store: ColumnarStore,
        default: float = 0.0,
        extra: Mapping[tuple[int, int], float] | None = None,
    ) -> None:
        if store.bid_si is None:
            raise ValueError("ColumnarInterest needs a store with bid_si values")
        if not 0.0 <= default <= 1.0:
            raise ValueError(f"default interest {default} outside [0, 1]")
        self._store = store
        self.default = float(default)
        self._extra: dict[tuple[int, int], float] = dict(extra) if extra else {}
        self._table: dict[tuple[int, int], float] | None = None

    def interest(self, event: Event, user: User) -> float:
        store = self._store
        row = store.user_pos.get(user.user_id)
        col = store.event_pos.get(event.event_id)
        if row is not None and col is not None:
            lo = int(store.bid_indptr[row])
            hi = int(store.bid_indptr[row + 1])
            hits = np.flatnonzero(store.bid_event_pos[lo:hi] == col)
            if hits.size:
                return float(store.bid_si[lo + int(hits[0])])
        return self._extra.get((event.event_id, user.user_id), self.default)

    def items(self) -> dict[tuple[int, int], float]:
        """The full table, materialized lazily once and returned as a copy."""
        if self._table is None:
            store = self._store
            entry_users = np.repeat(store.user_ids, np.diff(store.bid_indptr))
            entry_events = (
                store.event_ids[store.bid_event_pos]
                if store.num_bids
                else np.empty(0, dtype=np.int64)
            )
            table = dict(
                zip(
                    zip(entry_events.tolist(), entry_users.tolist()),
                    store.bid_si.tolist(),
                )
            )
            table.update(self._extra)
            self._table = table
        return dict(self._table)

    def __len__(self) -> int:
        if not self._extra:
            return self._store.num_bids
        return len(self.items())

    def to_dict(self) -> dict:
        return {
            "kind": "tabulated",
            "default": self.default,
            "values": [
                [event_id, user_id, value]
                for (event_id, user_id), value in sorted(self.items().items())
            ],
        }
