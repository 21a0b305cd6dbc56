"""Array-backed instance indexes: the vectorized view of an IGEPA instance.

Every derived quantity of Definitions 6-8 — ``D(G, u)``, ``SI``, ``w(u, v)``,
σ, bidder sets — used to live in per-pair dict caches, which forces nested
Python loops onto every algorithm.  The index classes materialize them once
per :class:`~repro.model.instance.IGEPAInstance` as contiguous NumPy arrays
so the layers above (arrangements, baselines, local search, LP construction)
can batch their hot paths.

Two interchangeable implementations share the :class:`BaseInstanceIndex`
protocol:

* :class:`InstanceIndex` — the dense index: ``W``/``SI``/``bid_mask`` as
  ``(num_users, num_events)`` matrices.  Fastest at benchmark scales, but
  memory is ``O(|U|·|V|)``; construction refuses instances beyond
  :data:`DENSE_CELL_CAP` cells (~10⁷).
* :class:`~repro.model.sharded_index.ShardedInstanceIndex` — the sharded
  index: no dense user-by-event matrices at all.  Pair data lives in the
  CSR arrays (``O(bids)``); contiguous user shards materialize dense slabs
  on demand, each under ~10⁶ cells.  This is what unlocks |U| ≥ 50k.

Everything position-based is common to both:

* ``user_ids`` / ``event_ids`` and the inverse ``user_pos`` / ``event_pos``
  maps — the contiguous coordinate system everything else is expressed in;
* ``bid_indptr`` / ``bid_indices`` / ``bid_si`` / ``bid_weights`` — a
  CSR-style incidence of the bid relation by user, in each user's bid-list
  order, carrying the SI and ``w(u, v)`` value of every bid pair;
* ``bidder_indptr`` / ``bidder_indices`` / ``bidder_weights`` — the
  transposed incidence by event, in instance user order (matching
  ``IGEPAInstance.bidders``);
* ``conflict_matrix`` — boolean σ over event positions (zero diagonal),
  and ``conflict_bits``, the same relation as one Python int per event
  position (bit ``p`` of ``conflict_bits[v]`` is σ(v, p)), which scalar
  feasibility probes test against a set of positions in one ``&``;
* ``degrees``, ``user_capacity``, ``event_capacity`` — per-entity vectors;
* the pair accessors (:meth:`BaseInstanceIndex.is_bid_pair`,
  :meth:`~BaseInstanceIndex.pair_weights`, ...) and the shard iterator
  (:meth:`BaseInstanceIndex.iter_shards`), which algorithms use instead of
  touching ``W``/``SI``/``bid_mask`` directly.

Indexes are *read-only by convention*: instances are immutable, so the index
is built lazily once (``IGEPAInstance.index``) and shared by every
arrangement and algorithm run on the instance.  The one sanctioned way to
produce a *different* index is :func:`repro.model.delta.apply_delta`, which
derives the successor instance's index from this one by patching the arrays
(delta maintenance) instead of rebuilding; ``from_components`` is the
constructor it uses, and :meth:`BaseInstanceIndex._finalize` keeps the
derived arrays bit-identical between the from-scratch and the patched build
because both run the same expressions.

Values are bit-identical to the scalar accessors they back — and bit
identical *between the two index implementations*: the same interest
function calls, the same degree normalisation, the same IEEE-754 double
arithmetic — so routing an algorithm through either index cannot change its
decisions under a fixed seed (``tests/integration/test_sharded_parity.py``
enforces this end to end).
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.model.errors import IndexCapacityError, InstanceValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.model.entities import Event, User
    from repro.model.instance import IGEPAInstance

#: Hard cap on dense ``(num_users, num_events)`` matrices: above this many
#: cells :class:`InstanceIndex` refuses to build (the three dense matrices
#: alone would exceed ~170 MB) and callers must use the sharded index.
DENSE_CELL_CAP = 10_000_000


def build_degrees(instance: "IGEPAInstance") -> np.ndarray:
    """``D(G, u)`` per user position (Definition 6).

    The single implementation of the degree vector — used by the
    from-scratch index build and by delta maintenance
    (:mod:`repro.model.delta`) whenever a churn batch changes the user set
    or the overrides, so the two can never drift apart.

    Routed through the instance's columnar store: the override branch is the
    store's ``degrees`` vector (packed from the override dict by the same
    ``dict.get`` lookups the per-user loop ran, so the bits cannot differ),
    and the graph branch batches one C-level fill over the id column — the
    same graph lookups and the same ``int / int`` IEEE-754 division as the
    scalar loop.
    """
    store = instance.store
    num_users = store.num_users
    if store.degrees is not None:
        # Zero-copy when already float64: indexes never mutate the degree
        # vector, and delta patching copies before touching it.
        return store.degrees.astype(np.float64, copy=False)
    if num_users > 1:
        social = instance.social
        has_node = social.has_node
        degree = social.degree
        raw = np.fromiter(
            (
                degree(user_id) if has_node(user_id) else 0
                for user_id in store.user_ids.tolist()
            ),
            dtype=np.int64,
            count=num_users,
        )
        return raw / (num_users - 1)
    return np.zeros(num_users, dtype=np.float64)


def validated_interest(
    interest_fn: Callable[["Event", "User"], float],
    event: "Event",
    user: "User",
) -> float:
    """Evaluate SI on one pair, enforcing Definition 5's ``[0, 1]`` range.

    The single range check used by the index build and by delta maintenance,
    so both paths reject bad interest functions with the same error.
    """
    value = interest_fn(event, user)
    if not 0.0 <= value <= 1.0:
        raise InstanceValidationError(
            f"interest function returned {value} for event "
            f"{event.event_id}, user {user.user_id}; Definition 5 "
            "requires [0, 1]"
        )
    return value


def conflict_bitmasks(conflict_matrix: np.ndarray) -> tuple[int, ...]:
    """σ rows as Python ints: bit ``p`` of entry ``v`` is σ(v, p).

    A set of event positions is then an int too, and "does ``v`` conflict
    with any of them" is one ``conflict_bits[v] & mask`` instead of a scan
    over the set.
    """
    packed = np.packbits(conflict_matrix, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


class IndexShard:
    """A contiguous user-position range of an index, with dense slabs.

    ``W`` / ``SI`` / ``bid_mask`` are ``(stop - start, num_events)`` arrays
    whose row ``i`` describes user position ``start + i``.  On the dense
    index they are views into the full matrices (zero copy); on the sharded
    index they are materialized from the CSR arrays on demand and not
    retained — peak memory per visit stays at one slab.
    """

    __slots__ = ("index", "shard_id", "start", "stop")

    def __init__(
        self, index: "BaseInstanceIndex", shard_id: int, start: int, stop: int
    ) -> None:
        self.index = index
        self.shard_id = shard_id
        self.start = start
        self.stop = stop

    @property
    def num_users(self) -> int:
        return self.stop - self.start

    @property
    def positions(self) -> range:
        """Global user positions covered by the shard."""
        return range(self.start, self.stop)

    @property
    def W(self) -> np.ndarray:
        return self.index._shard_weight_slab(self.start, self.stop)

    @property
    def SI(self) -> np.ndarray:
        return self.index._shard_si_slab(self.start, self.stop)

    @property
    def bid_mask(self) -> np.ndarray:
        return self.index._shard_mask_slab(self.start, self.stop)

    @property
    def bid_indptr(self) -> np.ndarray:
        """Local CSR offsets (``self.num_users + 1`` entries, 0-based)."""
        indptr = self.index.bid_indptr
        return indptr[self.start : self.stop + 1] - indptr[self.start]

    @property
    def entry_slice(self) -> slice:
        """Slice of the global CSR entry arrays covered by the shard."""
        indptr = self.index.bid_indptr
        return slice(int(indptr[self.start]), int(indptr[self.stop]))

    def __repr__(self) -> str:
        return (
            f"IndexShard({self.shard_id}, users=[{self.start}, {self.stop}), "
            f"events={self.index.num_events})"
        )


class BaseInstanceIndex:
    """The indexing protocol shared by the dense and sharded indexes.

    Subclasses build the *primary* arrays (ids, capacities, degrees,
    conflict matrix, CSR bid incidence with per-entry SI values) and call
    :meth:`_finalize`; everything else — derived arrays, pair accessors,
    shard iteration — lives here and is therefore bit-identical across
    implementations.
    """

    #: Primary + derived arrays compared by parity checks (delta-patched vs
    #: from-scratch builds).  Subclasses extend with their own storage.
    PARITY_ARRAYS: tuple[str, ...] = (
        "user_ids",
        "event_ids",
        "user_capacity",
        "event_capacity",
        "degrees",
        "conflict_matrix",
        "bid_indptr",
        "bid_indices",
        "bid_si",
        "bid_user_positions",
        "bid_weights",
        "bidder_indptr",
        "bidder_indices",
        "bidder_weights",
    )

    _instance_ref: "weakref.ref[IGEPAInstance]"
    user_ids: np.ndarray
    event_ids: np.ndarray
    user_pos: dict[int, int]
    event_pos: dict[int, int]
    user_capacity: np.ndarray
    event_capacity: np.ndarray
    degrees: np.ndarray
    conflict_matrix: np.ndarray
    bid_indptr: np.ndarray
    bid_indices: np.ndarray
    bid_si: np.ndarray
    conflict_bits: tuple[int, ...]

    @property
    def instance(self) -> "IGEPAInstance":
        """The indexed instance.

        Held through a weak reference: the instance caches its index, so a
        strong one back would put every instance and its index — dense
        arrays included — in a reference cycle that only the cyclic garbage
        collector frees, and superseded instances would pile up between its
        runs.
        """
        instance = self._instance_ref()
        if instance is None:
            raise ReferenceError("the indexed instance no longer exists")
        return instance

    @instance.setter
    def instance(self, instance: "IGEPAInstance") -> None:
        self._instance_ref = weakref.ref(instance)

    # ------------------------------------------------------------------
    # Shared construction
    # ------------------------------------------------------------------
    def _build_primary(self, instance: "IGEPAInstance") -> None:
        """Fill the primary arrays common to both implementations.

        All columns come straight from the instance's
        :class:`~repro.model.columnar.ColumnarStore` — zero copy, including
        the position maps — so the index build never iterates entity
        objects.  Indexes never mutate these arrays (delta maintenance
        always allocates fresh ones), so sharing is safe.
        """
        self.instance = instance
        store = instance.store

        self.user_ids = store.user_ids
        self.event_ids = store.event_ids
        self.user_pos = store.user_pos
        self.event_pos = store.event_pos
        self.user_capacity = store.user_capacity
        self.event_capacity = store.event_capacity

        self.degrees = build_degrees(instance)
        if store.conflict_matrix is not None:
            self.conflict_matrix = store.conflict_matrix
        else:
            # One view per event, not one per pair the generic matrix probes.
            self.conflict_matrix = instance.conflict.matrix(list(instance.events))

    def _build_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR bid incidence with per-entry SI values.

        The structure (``indptr`` / event positions) is the store's CSR,
        shared zero-copy.  SI values: when the instance's interest *is* the
        store's ``bid_si`` column (:class:`~repro.model.columnar.
        ColumnarInterest`), the column is range-checked in one vectorized
        pass and shared directly — no per-pair Python call.  Any other
        interest function is evaluated per pair exactly as the scalar
        ``IGEPAInstance.interest_of`` does, user by user in bid-list order —
        the same evaluation order on both index implementations, and the
        same values either way (the column holds what the tabulated
        function would return).
        """
        from repro.model.columnar import ColumnarInterest

        instance = self.instance
        store = instance.store
        indptr = store.bid_indptr
        indices = store.bid_event_pos

        interest_obj = instance.interest
        if (
            isinstance(interest_obj, ColumnarInterest)
            and interest_obj._store is store
            and store.bid_si is not None
        ):
            si_values = store.bid_si
            if si_values.size:
                bad = np.flatnonzero((si_values < 0.0) | (si_values > 1.0))
                if bad.size:
                    entry = int(bad[0])
                    row = int(np.searchsorted(indptr, entry, side="right")) - 1
                    col = int(indices[entry])
                    raise InstanceValidationError(
                        f"interest function returned {float(si_values[entry])} "
                        f"for event {int(self.event_ids[col])}, user "
                        f"{int(self.user_ids[row])}; Definition 5 "
                        "requires [0, 1]"
                    )
            return indptr, indices, si_values

        interest = interest_obj.interest
        users = instance.users
        # Each event's view is created once per build, not once per bid.
        events = list(instance.events)
        indptr_list = indptr.tolist()
        indices_list = indices.tolist()
        si_values = np.empty(indices.size, dtype=np.float64)
        # Generic Interest objects only expose scalar calls, so this path is
        # inherently per-bid; array-backed stores take the vectorized branch.
        for i in range(store.num_users):  # igepa: ignore[IGP001]
            user = users[i]
            for entry in range(indptr_list[i], indptr_list[i + 1]):
                si_values[entry] = validated_interest(
                    interest, events[indices_list[entry]], user
                )
        return indptr, indices, si_values

    def _finalize(self) -> None:
        """Derive the secondary arrays from the primary ones.

        Shared by the from-scratch constructors and the ``from_components``
        delta path of both implementations; the expressions here define the
        bit patterns of ``bid_weights`` and the bidder incidence, so any two
        indexes with equal primary arrays have equal derived arrays.
        """
        num_users = self.user_ids.size
        # float32 copy for the BLAS-backed bulk conflict audit.
        self.conflict_f32 = self.conflict_matrix.astype(np.float32)
        #: σ per event position as a bitmask over event positions
        #: (:func:`conflict_bitmasks`) — the scalar probes' representation.
        self.conflict_bits = conflict_bitmasks(self.conflict_matrix)
        beta = self.instance.beta
        #: Row expansion of the CSR: the user position of each bid pair,
        #: aligned with ``bid_indices``.
        self.bid_user_positions = np.repeat(
            np.arange(num_users, dtype=np.int64), np.diff(self.bid_indptr)
        )
        #: CSR values aligned with ``bid_indices``: ``w(u, v)`` per bid pair
        #: — the same ``β·SI + (1-β)·D`` doubles the dense ``W`` holds.
        self.bid_weights = (
            beta * self.bid_si
            + (1.0 - beta) * self.degrees[self.bid_user_positions]
            if self.bid_indices.size
            else np.empty(0, dtype=np.float64)
        )

        (
            self.bidder_indptr,
            self.bidder_indices,
            self._bidder_order,
        ) = self._build_bidder_incidence()
        #: ``w(u, v)`` aligned with ``bidder_indices``.
        self.bidder_weights = self.bid_weights[self._bidder_order]

        # Sorted (upos, vpos) keys over the CSR entries — the binary-search
        # backbone of the O(log bids) pair accessors — built lazily on first
        # use: the dense index overrides every accessor that needs it, so it
        # should never pay the O(bids log bids) sort.
        self._pair_sorted_keys: np.ndarray | None = None
        self._pair_sorted_entries: np.ndarray | None = None

    def _build_bidder_incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Transpose of the bid incidence: user positions per event.

        Users appear in instance order within each event — the same order
        ``IGEPAInstance.bidders`` has always returned.  Also returns the
        bid-entry permutation that realizes the transpose, so per-entry
        values (weights, SI) can be carried over without lookups.
        """
        num_events = self.num_events
        if self.bid_indices.size == 0:
            return (
                np.zeros(num_events + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        counts = np.bincount(self.bid_indices, minlength=num_events)
        indptr = np.zeros(num_events + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # Stable sort by event position keeps users in instance order.
        order = np.argsort(self.bid_indices, kind="stable")
        return indptr, self.bid_user_positions[order], order

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return self.user_ids.size

    @property
    def num_events(self) -> int:
        return self.event_ids.size

    @property
    def num_bids(self) -> int:
        return self.bid_indices.size

    # ------------------------------------------------------------------
    # Pair accessors (CSR binary search; overridden by the dense index)
    # ------------------------------------------------------------------
    def _pair_entries(
        self, upos: np.ndarray, vpos: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR entry index per (upos, vpos) pair plus the found mask.

        Entries of absent pairs are 0 and must be ignored via the mask.
        """
        if self._pair_sorted_keys is None:
            keys = self.bid_user_positions * np.int64(max(1, self.num_events))
            keys = keys + self.bid_indices
            order = np.argsort(keys, kind="stable")
            self._pair_sorted_keys = keys[order]
            self._pair_sorted_entries = order
        upos = np.asarray(upos, dtype=np.int64)
        vpos = np.asarray(vpos, dtype=np.int64)
        keys = upos * np.int64(max(1, self.num_events)) + vpos
        sorted_keys = self._pair_sorted_keys
        if not sorted_keys.size:  # no bids: no pair is a bid pair
            return (
                np.zeros(keys.shape, dtype=np.int64),
                np.zeros(keys.shape, dtype=bool),
            )
        slots = np.searchsorted(sorted_keys, keys)
        slots_clipped = np.minimum(slots, sorted_keys.size - 1)
        found = sorted_keys[slots_clipped] == keys
        entries = np.where(found, self._pair_sorted_entries[slots_clipped], 0)
        return entries, found

    def is_bid_pair(self, upos: int, vpos: int) -> bool:
        """Whether (user position, event position) is a bid pair."""
        _entries, found = self._pair_entries(
            np.asarray([upos]), np.asarray([vpos])
        )
        return bool(found[0])

    def weight_at(self, upos: int, vpos: int) -> float:
        """``w(u, v)`` of a pair — 0.0 off the bid relation (as dense W)."""
        entries, found = self._pair_entries(np.asarray([upos]), np.asarray([vpos]))
        return float(self.bid_weights[entries[0]]) if found[0] else 0.0

    def si_at(self, upos: int, vpos: int) -> float:
        """``SI`` of a pair — 0.0 off the bid relation (as dense SI)."""
        entries, found = self._pair_entries(np.asarray([upos]), np.asarray([vpos]))
        return float(self.bid_si[entries[0]]) if found[0] else 0.0

    def pair_bid_mask(self, upos: np.ndarray, vpos: np.ndarray) -> np.ndarray:
        """Vectorized bid-pair membership for parallel position arrays."""
        _entries, found = self._pair_entries(upos, vpos)
        return found

    def pair_weights(self, upos: np.ndarray, vpos: np.ndarray) -> np.ndarray:
        """Vectorized ``w(u, v)`` gather (0.0 off the bid relation)."""
        entries, found = self._pair_entries(upos, vpos)
        if not self.bid_weights.size:
            return np.zeros(entries.shape, dtype=np.float64)
        return np.where(found, self.bid_weights[entries], 0.0)

    def pair_si(self, upos: np.ndarray, vpos: np.ndarray) -> np.ndarray:
        """Vectorized ``SI`` gather (0.0 off the bid relation)."""
        entries, found = self._pair_entries(upos, vpos)
        if not self.bid_si.size:
            return np.zeros(entries.shape, dtype=np.float64)
        return np.where(found, self.bid_si[entries], 0.0)

    def weight_column(self, vpos: int) -> np.ndarray:
        """``w(·, v)`` over all user positions (0.0 for non-bidders).

        Same values as a dense ``W[:, vpos]`` column — assembled from the
        bidder incidence, so cost is O(|U| + bidders), not O(cells).
        """
        column = np.zeros(self.num_users, dtype=np.float64)
        start, stop = self.bidder_indptr[vpos], self.bidder_indptr[vpos + 1]
        column[self.bidder_indices[start:stop]] = self.bidder_weights[start:stop]
        return column

    def assigned_weight_total(self, assigned: np.ndarray) -> list[float]:
        """``w(u, v)`` of every True cell of a boolean assignment matrix.

        Only valid when every assigned cell is a bid pair (clean
        arrangements); the dense index overrides this with a masked gather.
        """
        rows, cols = np.nonzero(assigned)
        return self.pair_weights(rows, cols).tolist()

    def assigned_si_total(self, assigned: np.ndarray) -> list[float]:
        """``SI`` of every True cell of a boolean assignment matrix."""
        rows, cols = np.nonzero(assigned)
        return self.pair_si(rows, cols).tolist()

    # ------------------------------------------------------------------
    # Row / slice accessors
    # ------------------------------------------------------------------
    def user_bid_positions(self, upos: int) -> np.ndarray:
        """Event positions of the user's bids, in bid-list order."""
        return self.bid_indices[self.bid_indptr[upos] : self.bid_indptr[upos + 1]]

    def user_bid_weights(self, upos: int) -> np.ndarray:
        """``w(u, v)`` aligned with :meth:`user_bid_positions`."""
        return self.bid_weights[self.bid_indptr[upos] : self.bid_indptr[upos + 1]]

    def event_bidder_positions(self, vpos: int) -> np.ndarray:
        """User positions of the event's bidders, in instance user order."""
        return self.bidder_indices[
            self.bidder_indptr[vpos] : self.bidder_indptr[vpos + 1]
        ]

    def event_bidder_weights(self, vpos: int) -> np.ndarray:
        """``w(u, v)`` aligned with :meth:`event_bidder_positions`."""
        return self.bidder_weights[
            self.bidder_indptr[vpos] : self.bidder_indptr[vpos + 1]
        ]

    def user_weight_by_event_id(self, upos: int) -> dict[int, float]:
        """``{event_id: w(u, v)}`` over the user's bids.

        Handy for summing ``w(u, S)`` over admissible sets with the exact
        left-to-right float semantics of the scalar code path.
        """
        positions = self.user_bid_positions(upos)
        weights = self.user_bid_weights(upos)
        return dict(
            zip(self.event_ids[positions].tolist(), weights.tolist())
        )

    def conflict_pair_count(self) -> int:
        """Number of unordered conflicting event pairs."""
        if self.num_events < 2:
            return 0
        return int(np.count_nonzero(np.triu(self.conflict_matrix, k=1)))

    # ------------------------------------------------------------------
    # Shards
    # ------------------------------------------------------------------
    @property
    def shard_size(self) -> int:
        """Users per shard (the dense index is one all-covering shard)."""
        return max(1, self.num_users)

    @property
    def num_shards(self) -> int:
        size = self.shard_size
        return max(1, -(-self.num_users // size)) if self.num_users else 1

    def shard_bounds(self, shard_id: int) -> tuple[int, int]:
        """``[start, stop)`` user positions of a shard."""
        size = self.shard_size
        start = shard_id * size
        return start, min(start + size, self.num_users)

    def shard(self, shard_id: int) -> IndexShard:
        start, stop = self.shard_bounds(shard_id)
        return IndexShard(self, shard_id, start, stop)

    def iter_shards(self) -> Iterator[IndexShard]:
        """Iterate the user dimension shard by shard.

        Dense slabs (``shard.W`` etc.) stay under the per-shard cell budget,
        so shard-major algorithm loops never materialize O(|U|·|V|) state.
        """
        for shard_id in range(self.num_shards):
            yield self.shard(shard_id)

    # Slab builders (overridden by the dense index with zero-copy views).
    def _scatter_slab(
        self, start: int, stop: int, values: np.ndarray | None, dtype: type
    ) -> np.ndarray:
        slab = np.zeros((stop - start, self.num_events), dtype=dtype)
        lo, hi = int(self.bid_indptr[start]), int(self.bid_indptr[stop])
        rows = self.bid_user_positions[lo:hi] - start
        cols = self.bid_indices[lo:hi]
        slab[rows, cols] = True if values is None else values[lo:hi]
        return slab

    def _shard_weight_slab(self, start: int, stop: int) -> np.ndarray:
        return self._scatter_slab(start, stop, self.bid_weights, np.float64)

    def _shard_si_slab(self, start: int, stop: int) -> np.ndarray:
        return self._scatter_slab(start, stop, self.bid_si, np.float64)

    def _shard_mask_slab(self, start: int, stop: int) -> np.ndarray:
        return self._scatter_slab(start, stop, None, bool)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(users={self.num_users}, "
            f"events={self.num_events}, bids={self.num_bids})"
        )


class InstanceIndex(BaseInstanceIndex):
    """The dense index: contiguous matrices over one :class:`IGEPAInstance`.

    ``W`` / ``SI`` / ``bid_mask`` are full ``(num_users, num_events)``
    matrices; the protocol accessors resolve against them directly, so
    per-pair queries are O(1) array lookups.  Refuses to build beyond
    :data:`DENSE_CELL_CAP` cells — use
    :class:`~repro.model.sharded_index.ShardedInstanceIndex` there.
    """

    PARITY_ARRAYS = BaseInstanceIndex.PARITY_ARRAYS + ("SI", "bid_mask", "W")

    def __init__(self, instance: "IGEPAInstance") -> None:
        cells = len(instance.users) * len(instance.events)
        if cells > DENSE_CELL_CAP:
            raise IndexCapacityError(
                f"instance has {len(instance.users)} users x "
                f"{len(instance.events)} events = {cells} cells, beyond the "
                f"dense index cap of {DENSE_CELL_CAP}; build a "
                "ShardedInstanceIndex instead (IGEPAInstance.configure_index)"
            )
        self._build_primary(instance)
        self.bid_indptr, self.bid_indices, self.bid_si = self._build_csr()
        self._finalize()

    @classmethod
    def from_components(
        cls,
        instance: "IGEPAInstance",
        *,
        user_ids: np.ndarray,
        event_ids: np.ndarray,
        user_capacity: np.ndarray,
        event_capacity: np.ndarray,
        degrees: np.ndarray,
        conflict_matrix: np.ndarray,
        bid_indptr: np.ndarray,
        bid_indices: np.ndarray,
        bid_si: np.ndarray,
    ) -> "InstanceIndex":
        """Assemble an index from already-built primary arrays.

        Used by :func:`repro.model.delta.apply_delta` to attach a
        delta-patched index to a successor instance without the from-scratch
        interest/conflict/degree loops.  The caller must supply arrays whose
        values equal what ``InstanceIndex(instance)`` would compute; every
        *derived* array is then produced by the same :meth:`_finalize` code
        path the regular constructor runs, so they match bit for bit.
        """
        cells = user_ids.size * event_ids.size
        if cells > DENSE_CELL_CAP:
            raise IndexCapacityError(
                f"patched dense index would hold {cells} cells, beyond the "
                f"cap of {DENSE_CELL_CAP}; the delta layer must switch to a "
                "ShardedInstanceIndex at this size"
            )
        index = cls.__new__(cls)
        index.instance = instance
        index.user_ids = user_ids
        index.event_ids = event_ids
        index.user_pos = {int(u): i for i, u in enumerate(user_ids.tolist())}
        index.event_pos = {int(e): j for j, e in enumerate(event_ids.tolist())}
        index.user_capacity = user_capacity
        index.event_capacity = event_capacity
        index.degrees = degrees
        index.conflict_matrix = conflict_matrix
        index.bid_indptr = bid_indptr
        index.bid_indices = bid_indices
        index.bid_si = bid_si
        index._finalize()
        return index

    def _finalize(self) -> None:
        super()._finalize()
        num_users = self.num_users
        num_events = self.num_events
        self.SI = np.zeros((num_users, num_events), dtype=np.float64)
        self.bid_mask = np.zeros((num_users, num_events), dtype=bool)
        if self.bid_indices.size:
            self.SI[self.bid_user_positions, self.bid_indices] = self.bid_si
            self.bid_mask[self.bid_user_positions, self.bid_indices] = True
        beta = self.instance.beta
        self.W = np.where(
            self.bid_mask, beta * self.SI + (1.0 - beta) * self.degrees[:, None], 0.0
        )

    # ------------------------------------------------------------------
    # Dense overrides of the pair accessors (O(1) matrix lookups)
    # ------------------------------------------------------------------
    def is_bid_pair(self, upos: int, vpos: int) -> bool:
        return bool(self.bid_mask[upos, vpos])

    def weight_at(self, upos: int, vpos: int) -> float:
        return float(self.W[upos, vpos])

    def si_at(self, upos: int, vpos: int) -> float:
        return float(self.SI[upos, vpos])

    def pair_bid_mask(self, upos: np.ndarray, vpos: np.ndarray) -> np.ndarray:
        return self.bid_mask[upos, vpos]

    def pair_weights(self, upos: np.ndarray, vpos: np.ndarray) -> np.ndarray:
        return self.W[upos, vpos]

    def pair_si(self, upos: np.ndarray, vpos: np.ndarray) -> np.ndarray:
        return self.SI[upos, vpos]

    def weight_column(self, vpos: int) -> np.ndarray:
        return self.W[:, vpos]

    def assigned_weight_total(self, assigned: np.ndarray) -> list[float]:
        return self.W[assigned].tolist()

    def assigned_si_total(self, assigned: np.ndarray) -> list[float]:
        return self.SI[assigned].tolist()

    # Zero-copy slabs: the dense matrices are their own shard storage.
    def _shard_weight_slab(self, start: int, stop: int) -> np.ndarray:
        return self.W[start:stop]

    def _shard_si_slab(self, start: int, stop: int) -> np.ndarray:
        return self.SI[start:stop]

    def _shard_mask_slab(self, start: int, stop: int) -> np.ndarray:
        return self.bid_mask[start:stop]
