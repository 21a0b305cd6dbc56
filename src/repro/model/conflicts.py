"""Conflict functions ``σ(l_v, l_v')`` (Definition 3).

A conflict function decides whether two events cannot both be attended by the
same user.  The paper uses two concrete realizations:

* synthetic data — an explicit random conflict relation with density ``p_cf``
  (here :class:`MatrixConflict`);
* real data — "if two events overlap in time, they conflict with each other"
  (here :class:`TimeIntervalConflict`).

All implementations are symmetric and irreflexive; :func:`conflict_matrix`
materializes the relation as a boolean matrix over an event list.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.model.entities import Event


class ConflictFunction(ABC):
    """Interface for σ: pairs of events -> {0, 1}."""

    @abstractmethod
    def conflicts(self, first: Event, second: Event) -> bool:
        """Whether the two events conflict (σ = 1)."""

    def __call__(self, first: Event, second: Event) -> bool:
        return self.conflicts(first, second)

    def to_dict(self) -> dict:
        """JSON-serializable representation (see :func:`conflict_from_dict`)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support serialization"
        )

    def matrix(self, events: Sequence[Event]) -> np.ndarray:
        """Boolean σ matrix over ``events`` (zero diagonal).

        The generic implementation evaluates every unordered pair; concrete
        conflict functions override it with a vectorized construction so the
        :class:`~repro.model.index.InstanceIndex` build stays cheap.
        """
        n = len(events)
        result = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if self.conflicts(events[i], events[j]):
                    result[i, j] = True
                    result[j, i] = True
        return result


class NoConflict(ConflictFunction):
    """σ ≡ 0: no two events ever conflict (degenerates IGEPA to GEACC-like)."""

    def conflicts(self, first: Event, second: Event) -> bool:
        return False

    def matrix(self, events: Sequence[Event]) -> np.ndarray:
        return np.zeros((len(events), len(events)), dtype=bool)

    def to_dict(self) -> dict:
        return {"kind": "none"}


class AlwaysConflict(ConflictFunction):
    """σ ≡ 1 for distinct events: each user can attend at most one event."""

    def conflicts(self, first: Event, second: Event) -> bool:
        return first.event_id != second.event_id

    def matrix(self, events: Sequence[Event]) -> np.ndarray:
        ids = np.array([e.event_id for e in events], dtype=np.int64)
        return ids[:, None] != ids[None, :]

    def to_dict(self) -> dict:
        return {"kind": "always"}


class MatrixConflict(ConflictFunction):
    """An explicit symmetric conflict relation: event ids plus a boolean
    matrix over them.

    This realizes the synthetic-data setting: "Two events conflict with each
    other with the probability ``p_cf``".  Row and column ``i`` of
    :attr:`relation` belong to ``event_ids[i]``; ids outside ``event_ids``
    conflict with nothing.  A churned instance's σ is a :meth:`view` of its
    store's ``conflict_matrix``, so delta maintenance patches the relation
    once and keeps no second copy.
    """

    event_ids: np.ndarray
    relation: np.ndarray
    _event_pos: Mapping[int, int] | None

    def __init__(self, conflicting_pairs: Iterable[tuple[int, int]] = ()) -> None:
        ends = np.array(list(conflicting_pairs), dtype=np.int64).reshape(-1, 2)
        loops = ends[:, 0] == ends[:, 1]
        if loops.any():
            raise ValueError(
                f"event {int(ends[loops][0, 0])} cannot conflict with itself"
            )
        event_ids, rows = np.unique(ends.ravel(), return_inverse=True)
        rows = rows.reshape(-1, 2)
        relation = np.zeros((event_ids.size, event_ids.size), dtype=bool)
        relation[rows[:, 0], rows[:, 1]] = True
        relation[rows[:, 1], rows[:, 0]] = True
        self.event_ids = event_ids
        self.relation = relation
        self._event_pos = None

    @classmethod
    def view(
        cls,
        event_ids: np.ndarray,
        relation: np.ndarray,
        event_pos: Mapping[int, int] | None = None,
    ) -> "MatrixConflict":
        """σ over ``relation`` itself, not a copy.

        ``relation`` must be symmetric with a zero diagonal, row ``i``
        belonging to ``event_ids[i]``; ``event_pos`` (``id -> row``) is
        built on first use when not given.
        """
        conflict = cls.__new__(cls)
        conflict.event_ids = event_ids
        conflict.relation = relation
        conflict._event_pos = event_pos
        return conflict

    @classmethod
    def sample(
        cls,
        event_ids: Sequence[int],
        probability: float,
        rng: np.random.Generator,
    ) -> "MatrixConflict":
        """Sample each unordered pair as conflicting with ``probability``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"conflict probability must be in [0, 1], got {probability}")
        ids = np.array(list(event_ids), dtype=np.int64)
        n = ids.size
        relation = np.zeros((n, n), dtype=bool)
        if n >= 2 and probability > 0.0:
            iu, ju = np.triu_indices(n, k=1)
            mask = rng.random(iu.shape[0]) < probability
            relation[iu[mask], ju[mask]] = True
            relation[ju[mask], iu[mask]] = True
        return cls.view(ids, relation)

    @property
    def event_pos(self) -> Mapping[int, int]:
        """``event_id -> row`` of :attr:`relation`."""
        if self._event_pos is None:
            self._event_pos = dict(zip(self.event_ids.tolist(), range(self.event_ids.size)))
        return self._event_pos

    def conflicts(self, first: Event, second: Event) -> bool:
        return self.conflicts_ids(first.event_id, second.event_id)

    def conflicts_ids(self, first_id: int, second_id: int) -> bool:
        """σ by event id, for callers that have no :class:`Event` objects."""
        event_pos = self.event_pos
        i = event_pos.get(first_id)
        j = event_pos.get(second_id)
        return i is not None and j is not None and bool(self.relation[i, j])

    def matrix(self, events: Sequence[Event]) -> np.ndarray:
        event_pos = self.event_pos
        rows = np.fromiter(
            (event_pos.get(e.event_id, -1) for e in events),
            dtype=np.int64,
            count=len(events),
        )
        known = np.flatnonzero(rows >= 0)
        result = np.zeros((len(events), len(events)), dtype=bool)
        result[np.ix_(known, known)] = self.relation[np.ix_(rows[known], rows[known])]
        return result

    @property
    def num_conflicting_pairs(self) -> int:
        return int(np.count_nonzero(self.relation)) // 2

    def _sorted_pairs(self) -> list[list[int]]:
        """Every conflicting pair as ``[low_id, high_id]``, sorted."""
        first, second = np.nonzero(np.triu(self.relation, k=1))
        a, b = self.event_ids[first], self.event_ids[second]
        low, high = np.minimum(a, b), np.maximum(a, b)
        order = np.lexsort((high, low))
        return np.column_stack((low[order], high[order])).tolist()

    def pairs(self) -> list[tuple[int, int]]:
        """All conflicting pairs as sorted ``(low_id, high_id)`` tuples."""
        return [(low, high) for low, high in self._sorted_pairs()]

    def to_dict(self) -> dict:
        return {"kind": "matrix", "pairs": self._sorted_pairs()}


class TimeIntervalConflict(ConflictFunction):
    """σ = 1 iff the events' time intervals overlap (the real-data rule).

    Events lacking temporal attributes never conflict under this function.
    Touching intervals (one ends exactly when the other starts) do not
    overlap.
    """

    def conflicts(self, first: Event, second: Event) -> bool:
        if first.event_id == second.event_id:
            return False
        if first.start_time is None or second.start_time is None:
            return False
        return (
            first.start_time < second.end_time
            and second.start_time < first.end_time
        )

    def matrix(self, events: Sequence[Event]) -> np.ndarray:
        n = len(events)
        starts = np.array(
            [e.start_time if e.start_time is not None else np.nan for e in events]
        )
        ends = np.array(
            [e.end_time if e.end_time is not None else np.nan for e in events]
        )
        ids = np.array([e.event_id for e in events], dtype=np.int64)
        with np.errstate(invalid="ignore"):
            overlap = (starts[:, None] < ends[None, :]) & (
                starts[None, :] < ends[:, None]
            )
        return overlap & (ids[:, None] != ids[None, :])

    def to_dict(self) -> dict:
        return {"kind": "time-interval"}


class CompositeConflict(ConflictFunction):
    """σ = 1 iff *any* member function reports a conflict.

    Models multi-attribute conflicts (e.g. same time slot OR same venue).
    """

    def __init__(self, members: Sequence[ConflictFunction]) -> None:
        if not members:
            raise ValueError("CompositeConflict needs at least one member")
        self.members = list(members)

    def conflicts(self, first: Event, second: Event) -> bool:
        return any(member.conflicts(first, second) for member in self.members)

    def matrix(self, events: Sequence[Event]) -> np.ndarray:
        result = np.zeros((len(events), len(events)), dtype=bool)
        for member in self.members:
            result |= member.matrix(events)
        return result

    def to_dict(self) -> dict:
        return {
            "kind": "composite",
            "members": [member.to_dict() for member in self.members],
        }


def conflict_matrix(
    events: Sequence[Event], conflict: ConflictFunction
) -> np.ndarray:
    """Boolean matrix ``C[i, j] = σ(events[i], events[j])`` (zero diagonal)."""
    return conflict.matrix(events)


def validate_symmetry(
    events: Sequence[Event], conflict: ConflictFunction
) -> None:
    """Raise ``ValueError`` if σ is asymmetric or reflexive on ``events``.

    Definition 3 implies symmetry (conflicting is mutual); a custom
    :class:`ConflictFunction` can be checked with this helper before use.
    """
    for i, first in enumerate(events):
        if conflict.conflicts(first, first):
            raise ValueError(f"conflict function is reflexive on event {first.event_id}")
        for second in events[i + 1 :]:
            forward = conflict.conflicts(first, second)
            backward = conflict.conflicts(second, first)
            if forward != backward:
                raise ValueError(
                    "conflict function is asymmetric on events "
                    f"({first.event_id}, {second.event_id})"
                )


def conflict_from_dict(payload: dict) -> ConflictFunction:
    """Inverse of the ``to_dict`` methods above."""
    kind = payload.get("kind")
    if kind == "none":
        return NoConflict()
    if kind == "always":
        return AlwaysConflict()
    if kind == "matrix":
        return MatrixConflict(payload["pairs"])
    if kind == "time-interval":
        return TimeIntervalConflict()
    if kind == "composite":
        return CompositeConflict(
            [conflict_from_dict(member) for member in payload["members"]]
        )
    raise ValueError(f"unknown conflict function kind {kind!r}")
