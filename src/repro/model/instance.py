"""The IGEPA problem instance (Definition 8).

:class:`IGEPAInstance` bundles everything the problem statement takes as
input — events ``V``, users ``U``, the conflict function σ, the interest
function SI, the social network ``G`` and the balance parameter β — and
provides the derived quantities every algorithm needs:

* ``D(G, u)`` — degree of potential interaction per user (Definition 6),
* ``w(u, v) = β·SI(l_v, l_u) + (1-β)·D(G, u)`` — the pair weight from the
  benchmark LP,
* the conflict relation restricted to each user's bids,
* bidder sets ``N_v``.

Every instance is stored as one :class:`~repro.model.columnar.ColumnarStore`,
whichever constructor built it.  The store holds σ's matrix and the SI value
of every bid (``bid_si``); a store that comes without them gets them packed
from the conflict and interest functions on construction.  Instances are
validated on construction and immutable by convention: all derived
quantities are cached.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Mapping, Sequence
from pathlib import Path

import numpy as np

from repro.analysis_tools.sanitize import sanitize_index, sanitize_store
from repro.model.columnar import (
    ColumnarStore,
    EventColumn,
    IdViewMap,
    UserColumn,
)
from repro.model.conflicts import ConflictFunction, conflict_from_dict
from repro.model.entities import Event, User
from repro.model.errors import InstanceValidationError
from repro.model.index import BaseInstanceIndex, index_class
from repro.model.interest import (
    InterestFunction,
    TabulatedInterest,
    interest_from_dict,
    pair_interest,
    validated_interest,
)
from repro.social.graph import Graph


class IGEPAInstance:
    """All inputs of the IGEPA problem, validated and cached.

    Every instance is backed by one
    :class:`~repro.model.columnar.ColumnarStore`: the constructor packs the
    given entities into columns once, and from then on ``users``/``events``
    are lazy view columns over the store, ``user_by_id``/``event_by_id``
    are O(1) view mappings, and degree overrides live in the store's
    ``degrees`` vector.  :meth:`from_store` wraps an already-built store.
    Either way σ's matrix and every bid's SI go into the store once, when
    it does not hold them yet; ``interest`` stays the input function,
    which churn never rewrites.

    Args:
        events: the event set ``V``.
        users: the user set ``U`` (bids reference event ids).
        conflict: the conflict function σ.
        interest: the interest function SI.
        social: the social network ``G`` over user ids; users absent from the
            graph are treated as isolated (degree 0).
        beta: balance between interest and interaction terms, in ``[0, 1]``.
        name: optional label used in reports.
        degrees: optional precomputed ``D(G, u)`` values keyed by user id,
            overriding graph lookups (users absent from the dict get 0.0).
            Large synthetic workloads sample degrees from the exact Binomial
            marginal instead of materializing a multi-million-edge graph;
            the utility only depends on degrees, so the substitution is
            lossless.

    Raises:
        InstanceValidationError: on duplicate ids, dangling bids, an invalid
            ``beta``, social-network nodes that are not users, degree
            overrides for non-users or outside ``[0, 1]``, or an interest
            function returning a value outside ``[0, 1]`` on a bid pair.
    """

    def __init__(
        self,
        events: Sequence[Event],
        users: Sequence[User],
        conflict: ConflictFunction,
        interest: InterestFunction,
        social: Graph,
        beta: float = 0.5,
        name: str = "",
        degrees: Mapping[int, float] | None = None,
    ) -> None:
        store = ColumnarStore.from_entities(users, events, degrees=degrees)
        if degrees:
            # The packed column silently drops keys of unknown users.
            keys = np.fromiter(degrees.keys(), dtype=np.int64, count=len(degrees))
            present = np.isin(keys, store.user_ids)
            if not present.all():
                alien_degrees = sorted(set(keys[~present].tolist()))
                raise InstanceValidationError(
                    f"degree overrides for non-users {alien_degrees[:5]}"
                )
        self._init(store, conflict, interest, social, beta, name, validate=True)

    @classmethod
    def from_store(
        cls,
        store: ColumnarStore,
        conflict: ConflictFunction,
        interest: InterestFunction,
        social: Graph,
        beta: float = 0.5,
        name: str = "",
        validate: bool = True,
    ) -> "IGEPAInstance":
        """Wrap a :class:`~repro.model.columnar.ColumnarStore` directly.

        The arrays-first constructor: no per-entity object is created.
        ``validate=False`` skips the structural checks — delta maintenance
        (:mod:`repro.model.delta`) passes it because every operation was
        already validated incrementally against the predecessor.

        A store without ``conflict_matrix`` or ``bid_si`` gets them filled
        in place from ``conflict`` and ``interest``, so the given store is
        the instance's own: wrapping it again with other functions keeps
        the first fill.
        """
        self = cls.__new__(cls)
        self._init(store, conflict, interest, social, beta, name, validate)
        return self

    def _init(
        self,
        store: ColumnarStore,
        conflict: ConflictFunction,
        interest: InterestFunction,
        social: Graph,
        beta: float,
        name: str,
        validate: bool,
    ) -> None:
        self.store = store
        self.users = UserColumn(store)
        self.events = EventColumn(store)
        self.user_by_id: Mapping[int, User] = IdViewMap(store, "user")
        self.event_by_id: Mapping[int, Event] = IdViewMap(store, "event")
        self._conflict = conflict
        self._interest = interest
        self.social = social
        self.beta = float(beta)
        self.name = name
        self._degrees_dict: dict[int, float] | None = None

        if validate:
            self._validate()
        # After validation, which the fill's bid positions rely on.
        if store.conflict_matrix is None:
            store.conflict_matrix = conflict.matrix(list(self.events))
        if store.bid_si is None:
            store.bid_si = self._function_interest()
        # After validation, so malformed input reports as
        # InstanceValidationError whether or not the sanitizers are on.
        sanitize_store(store)

        # Fallback cache for SI on non-bid pairs only; bid pairs live in the
        # index's SI storage.
        self._interest_cache: dict[tuple[int, int], float] = {}
        self._index: BaseInstanceIndex | None = None
        # ``sharded`` as set by configure_index (see index_class).
        self._index_config = False

    @property
    def conflict(self) -> ConflictFunction:
        """σ as given on construction.  Read-only: its matrix is packed
        into the store once, so a new σ needs a new instance."""
        return self._conflict

    @property
    def interest(self) -> InterestFunction:
        """SI as given on construction.  Read-only: every bid's value is
        packed into the store once, so a new SI needs a new instance."""
        return self._interest

    def _bid_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Event and user id of every bid entry, in the store's CSR order."""
        store = self.store
        return (
            store.event_ids[store.bid_event_pos],
            np.repeat(store.user_ids, np.diff(store.bid_indptr)),
        )

    def _function_interest(self) -> np.ndarray:
        """``interest`` evaluated on every bid, in the store's CSR order."""
        event_ids, user_ids = self._bid_ids()

        def entities() -> Iterator[tuple[Event, User]]:
            # One view per event and per user, not per bid.
            events = list(self.events)
            indptr = self.store.bid_indptr.tolist()
            positions = self.store.bid_event_pos.tolist()
            for row, user in enumerate(self.users):
                for pos in positions[indptr[row] : indptr[row + 1]]:
                    yield events[pos], user

        return pair_interest(
            self.interest, event_ids.tolist(), user_ids.tolist(), entities
        )

    @property
    def is_columnar(self) -> bool:
        """Always True: every instance is backed by its store.

        Kept because the benchmark driver reports it with each run.
        """
        return True

    @property
    def degrees_override(self) -> dict[int, float] | None:
        """Precomputed ``D(G, u)`` values keyed by user id, or None.

        Materialized lazily from the store's ``degrees`` column, with an
        entry for every user (0.0 for users a partial override dict
        omitted); use :attr:`has_degree_overrides` for a cheap existence
        check.
        """
        if self.store.degrees is None:
            return None
        if self._degrees_dict is None:
            self._degrees_dict = dict(
                zip(self.store.user_ids.tolist(), self.store.degrees.tolist())
            )
        return self._degrees_dict

    @property
    def has_degree_overrides(self) -> bool:
        """Whether degree overrides exist — O(1), never materializes a dict."""
        return self.store.degrees is not None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        self.store.validate()
        if not 0.0 <= self.beta <= 1.0:
            raise InstanceValidationError(f"beta must be in [0, 1], got {self.beta}")
        nodes = list(self.social.nodes())
        if not nodes:
            return
        node_ids = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
        present = np.isin(node_ids, self.store.user_ids)
        if not present.all():
            alien = sorted(set(node_ids[~present].tolist()))
            raise InstanceValidationError(
                f"social network contains non-user nodes {alien[:5]}"
            )

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def num_users(self) -> int:
        return len(self.users)

    # ------------------------------------------------------------------
    # Derived quantities (thin views over the array-backed index)
    # ------------------------------------------------------------------
    @property
    def index(self) -> BaseInstanceIndex:
        """The array-backed index, built lazily once.

        Single source of truth for weights, interest, degrees, conflicts and
        bid incidence; the scalar accessors below are views over it.  The
        implementation is the dense :class:`~repro.model.index.InstanceIndex`
        up to :data:`~repro.model.index.DENSE_CELL_CAP` user-by-event cells
        and the CSR :class:`~repro.model.index.ShardedInstanceIndex` above
        or when :meth:`configure_index` asks for it
        (:func:`~repro.model.index.index_class`).
        """
        if self._index is None:
            cls = index_class(self.num_users, self.num_events, self._index_config)
            self._index = cls(self)
            sanitize_index(self._index)
        return self._index

    def configure_index(self, *, sharded: bool = True) -> None:
        """Choose the index implementation ahead of the lazy build.

        Args:
            sharded: build the CSR
                :class:`~repro.model.index.ShardedInstanceIndex` (True), or
                pick by size (False: the dense index up to the dense cell
                cap, the CSR index above).  Churn successors inherit it.

        Any already-built index is discarded; arrangements bound to it keep
        working against the old index object.
        """
        self._index_config = sharded
        self._index = None

    def degree(self, user_id: int) -> float:
        """``D(G, u)`` (Definition 6) for the given user.

        Users not present in the social graph are isolated: degree 0.  The
        normalisation is by ``|U| - 1`` where ``U`` is the *user set of the
        instance* (the paper's social network is over all users).
        """
        index = self.index
        position = index.user_pos.get(user_id)
        if position is None:
            raise KeyError(f"unknown user id {user_id}")
        return float(index.degrees[position])

    def interest_of(self, event_id: int, user_id: int) -> float:
        """``SI(l_v, l_u)`` — the store's ``bid_si`` value for bid pairs,
        read through the index.

        Non-bid pairs (never queried by feasible arrangements) fall back to
        the interest function, cached per pair; churn never writes them.

        Raises:
            InstanceValidationError: if the interest function returns a value
                outside ``[0, 1]``.
        """
        index = self.index
        upos = index.user_pos.get(user_id)
        vpos = index.event_pos.get(event_id)
        if upos is not None and vpos is not None and index.is_bid_pair(upos, vpos):
            return index.si_at(upos, vpos)
        key = (event_id, user_id)
        cached = self._interest_cache.get(key)
        if cached is not None:
            return cached
        value = validated_interest(
            self.interest.interest,
            self.event_by_id[event_id],
            self.user_by_id[user_id],
        )
        self._interest_cache[key] = value
        return value

    def weight(self, user_id: int, event_id: int) -> float:
        """``w(u, v) = β·SI(l_v, l_u) + (1 - β)·D(G, u)`` from the benchmark LP."""
        index = self.index
        upos = index.user_pos.get(user_id)
        vpos = index.event_pos.get(event_id)
        if upos is not None and vpos is not None and index.is_bid_pair(upos, vpos):
            return index.weight_at(upos, vpos)
        return self.beta * self.interest_of(event_id, user_id) + (
            1.0 - self.beta
        ) * self.degree(user_id)

    def conflicts(self, event_id: int, other_id: int) -> bool:
        """σ between two events by id — one bit of the index's conflict
        bitmasks."""
        if event_id == other_id:
            return False
        index = self.index
        first = index.event_pos.get(event_id)
        if first is None:
            raise KeyError(event_id)
        second = index.event_pos.get(other_id)
        if second is None:
            raise KeyError(other_id)
        return bool(index.conflict_bits[first] >> second & 1)

    def bidders(self, event_id: int) -> list[int]:
        """``N_v``: ids of users who bid for the event, in instance order."""
        index = self.index
        position = index.event_pos.get(event_id)
        if position is None:
            raise KeyError(f"unknown event id {event_id}")
        return index.user_ids[index.event_bidder_positions(position)].tolist()

    def bid_conflict_edges(self, user: User) -> list[tuple[int, int]]:
        """Conflicting pairs among the user's bids (the graph whose
        independent sets are the admissible event sets)."""
        index = self.index
        conflict_bits = index.conflict_bits
        bids = user.bids
        positions = [index.event_pos[event_id] for event_id in bids]
        edges = []
        for i, first in enumerate(bids):
            row = conflict_bits[positions[i]]
            for j in range(i + 1, len(bids)):
                if row >> positions[j] & 1:
                    edges.append((first, bids[j]))
        return edges

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def statistics(self) -> dict:
        """Summary statistics used by reports and sanity tests."""
        total_bids = self.store.num_bids
        n = self.num_events
        conflict_pairs = self.index.conflict_pair_count()
        return {
            "name": self.name,
            "num_events": self.num_events,
            "num_users": self.num_users,
            "total_bids": total_bids,
            "mean_bids_per_user": total_bids / self.num_users if self.num_users else 0.0,
            "conflict_density": (
                conflict_pairs / (n * (n - 1) / 2) if n >= 2 else 0.0
            ),
            "social_edges": self.social.number_of_edges,
            "beta": self.beta,
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable snapshot (requires serializable σ and SI)."""
        return {
            "name": self.name,
            "beta": self.beta,
            "events": [
                {
                    "event_id": e.event_id,
                    "capacity": e.capacity,
                    "attributes": e.attributes.tolist(),
                    "start_time": e.start_time,
                    "duration": e.duration,
                    "categories": sorted(e.categories),
                }
                for e in self.events
            ],
            "users": [
                {
                    "user_id": u.user_id,
                    "capacity": u.capacity,
                    "attributes": u.attributes.tolist(),
                    "bids": list(u.bids),
                    "categories": sorted(u.categories),
                }
                for u in self.users
            ],
            "conflict": self.conflict.to_dict(),
            "interest": self._interest_payload(),
            "social_edges": [[u, v] for u, v in sorted(
                tuple(sorted(edge)) for edge in self.social.edges()
            )],
            "degrees": (
                None
                if self.degrees_override is None
                else {str(k): v for k, v in sorted(self.degrees_override.items())}
            ),
        }

    def _interest_payload(self) -> dict:
        """SI as saved: the interest function, and for a table also every
        bid whose stored value differs from it (re-weighted or spliced by
        churn), so loading rebuilds the same ``bid_si`` column.

        The merged table is the loaded instance's interest function: a bid
        withdrawn and later re-added without an entry reads its saved value
        there, and the original table's value on the instance that was
        saved.  Any other function is saved as is, without the column.
        """
        interest = self.interest
        if not isinstance(interest, TabulatedInterest):
            return interest.to_dict()
        column = self.store.bid_si
        assert column is not None  # filled in _init
        differ = np.flatnonzero(column != self._function_interest())
        if not differ.size:
            return interest.to_dict()
        event_ids, user_ids = self._bid_ids()
        values = interest.items()
        values.update(
            zip(
                zip(event_ids[differ].tolist(), user_ids[differ].tolist()),
                column[differ].tolist(),
            )
        )
        return TabulatedInterest(values, interest.default).to_dict()

    @classmethod
    def from_dict(cls, payload: dict) -> "IGEPAInstance":
        """Inverse of :meth:`to_dict`."""
        events = [
            Event(
                event_id=e["event_id"],
                capacity=e["capacity"],
                attributes=np.asarray(e["attributes"], dtype=float),
                start_time=e["start_time"],
                duration=e["duration"],
                categories=frozenset(e["categories"]),
            )
            for e in payload["events"]
        ]
        users = [
            User(
                user_id=u["user_id"],
                capacity=u["capacity"],
                attributes=np.asarray(u["attributes"], dtype=float),
                bids=tuple(u["bids"]),
                categories=frozenset(u["categories"]),
            )
            for u in payload["users"]
        ]
        social = Graph(nodes=[u.user_id for u in users])
        for u, v in payload["social_edges"]:
            social.add_edge(u, v)
        raw_degrees = payload.get("degrees")
        degrees = (
            None
            if raw_degrees is None
            else {int(k): float(v) for k, v in raw_degrees.items()}
        )
        return cls(
            events=events,
            users=users,
            conflict=conflict_from_dict(payload["conflict"]),
            interest=interest_from_dict(payload["interest"]),
            social=social,
            beta=payload["beta"],
            name=payload.get("name", ""),
            degrees=degrees,
        )

    def save(self, path: str | Path) -> None:
        """Write the instance as JSON."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "IGEPAInstance":
        """Read an instance written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def __repr__(self) -> str:
        return (
            f"IGEPAInstance({self.name!r}, events={self.num_events}, "
            f"users={self.num_users}, beta={self.beta})"
        )
