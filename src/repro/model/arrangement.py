"""Event-participant arrangements (Definition 4) and their utility (Definition 7).

An :class:`Arrangement` is a mutable set of (event, user) pairs bound to an
:class:`~repro.model.instance.IGEPAInstance`.  Mutations check the three
feasibility constraints *incrementally* (O(c_u) per insert), so algorithm
implementations can build arrangements pair by pair and rely on the model to
reject violations:

* **Bid** — users only join events they bid for;
* **Capacity** — both ``c_v`` (attendees per event) and ``c_u`` (events per
  user);
* **Conflict** — no user attends two conflicting events.

The bid constraint is part of the type: every pair is a known
(event, user) pair of the instance's bid relation, however it was added.
``add(..., check=False)`` skips only the capacity and conflict probes, so an
arrangement can still be over capacity or hold conflicting events — which
:meth:`Arrangement.violations` reports.

State lives in one store, indexed by the instance's
:class:`~repro.model.index.InstanceIndex` positions: a boolean assignment
matrix, per-event attendance and per-user load counters, and each user's
assigned event positions in insertion order.  Membership, capacity and
conflict checks are array lookups, ``utility()`` and the feasibility audit
are vectorized, and the pair set is derived from the per-user lists.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

from repro.model.errors import ArrangementError
from repro.model.instance import IGEPAInstance


class Arrangement:
    """A collection of bid pairs, feasible by construction when checked.

    Use ``add(..., check=False)`` only when the caller guarantees capacity
    and conflict feasibility; ``is_feasible()`` / ``violations()`` re-verify
    from scratch.
    """

    def __init__(self, instance: IGEPAInstance) -> None:
        self.instance = instance
        index = instance.index
        self._idx = index
        # Sanctioned dense storage: 1 byte/cell bool, the arrangement's own
        # representation (mirrors the LP variable grid, not a weight slab).
        self._assigned = np.zeros(  # igepa: ignore[IGP002]
            (index.num_users, index.num_events), dtype=bool
        )
        self._attendance = np.zeros(index.num_events, dtype=np.int64)
        self._load = np.zeros(index.num_users, dtype=np.int64)
        # Assigned event positions per user position, in insertion order.
        self._user_events: list[list[int]] = [[] for _ in range(index.num_users)]

    @classmethod
    def from_positions(
        cls, instance: IGEPAInstance, upos: np.ndarray, vpos: np.ndarray
    ) -> "Arrangement":
        """Build an arrangement from parallel arrays of distinct
        (user position, event position) pairs, without capacity or conflict
        checks.

        Each user's events are listed in ascending position order.

        Raises:
            ArrangementError: if a pair is not a bid pair.
        """
        arrangement = cls(instance)
        upos = np.asarray(upos, dtype=np.int64)
        vpos = np.asarray(vpos, dtype=np.int64)
        index = arrangement._idx
        if not index.pair_bid_mask(upos, vpos).all():
            raise ArrangementError("bid constraint: a pair is not a bid pair")
        arrangement._assigned[upos, vpos] = True
        arrangement._attendance += np.bincount(vpos, minlength=index.num_events)
        arrangement._load += np.bincount(upos, minlength=index.num_users)
        order = np.lexsort((vpos, upos))
        user_events = arrangement._user_events
        for u, v in zip(upos[order].tolist(), vpos[order].tolist()):
            user_events[u].append(v)
        return arrangement

    # ------------------------------------------------------------------
    # Content
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> set[tuple[int, int]]:
        """All ``(event_id, user_id)`` pairs (a fresh set)."""
        return set(self)

    def __len__(self) -> int:
        return int(self._load.sum())

    def __contains__(self, pair: tuple[int, int]) -> bool:
        event_id, user_id = pair
        index = self._idx
        vpos = index.event_pos.get(event_id)
        upos = index.user_pos.get(user_id)
        if vpos is None or upos is None:
            return False
        return bool(self._assigned[upos, vpos])

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Pairs user position by user position, each user's in insertion
        order."""
        event_ids = self._idx.event_ids.tolist()
        user_ids = self._idx.user_ids
        for upos in np.flatnonzero(self._load).tolist():
            user_id = int(user_ids[upos])
            for vpos in self._user_events[upos]:
                yield event_ids[vpos], user_id

    def events_of(self, user_id: int) -> set[int]:
        """Events currently assigned to the user."""
        index = self._idx
        upos = index.user_pos.get(user_id)
        if upos is None:
            return set()
        event_ids = index.event_ids
        return {int(event_ids[p]) for p in self._user_events[upos]}

    def users_of(self, event_id: int) -> set[int]:
        """Users currently assigned to the event."""
        index = self._idx
        vpos = index.event_pos.get(event_id)
        if vpos is None:
            return set()
        attendees = np.flatnonzero(self._assigned[:, vpos])
        return {int(u) for u in index.user_ids[attendees]}

    def attendance(self, event_id: int) -> int:
        """Number of users assigned to the event."""
        vpos = self._idx.event_pos.get(event_id)
        return 0 if vpos is None else int(self._attendance[vpos])

    def load(self, user_id: int) -> int:
        """Number of events assigned to the user."""
        upos = self._idx.user_pos.get(user_id)
        return 0 if upos is None else int(self._load[upos])

    # ------------------------------------------------------------------
    # Array views (positions are InstanceIndex coordinates)
    # ------------------------------------------------------------------
    @property
    def attendance_counts(self) -> np.ndarray:
        """Per-event-position attendance — live view, do not mutate."""
        return self._attendance

    @property
    def load_counts(self) -> np.ndarray:
        """Per-user-position load — live view, do not mutate."""
        return self._load

    @property
    def assignment_matrix(self) -> np.ndarray:
        """Boolean (users × events) assignment — live view, do not mutate."""
        return self._assigned

    def assigned_event_positions(self, upos: int) -> list[int]:
        """Assigned event positions of a user position, in insertion order —
        live view, do not mutate."""
        return self._user_events[upos]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _addition_violation(
        self, event_id: int, user_id: int, explain: bool
    ) -> str | None:
        """The single rule set behind ``can_add`` and checked ``add``.

        Returns None when the pair is addable; otherwise a violation marker —
        the full message when ``explain``, the empty string when the caller
        only needs a boolean (skipping the f-string work on hot paths).
        """
        index = self._idx
        vpos = index.event_pos.get(event_id)
        if vpos is None:
            return f"unknown event id {event_id}" if explain else ""
        upos = index.user_pos.get(user_id)
        if upos is None:
            return f"unknown user id {user_id}" if explain else ""
        if self._assigned[upos, vpos]:
            return (
                f"pair ({event_id}, {user_id}) already present" if explain else ""
            )
        if not index.is_bid_pair(upos, vpos):
            return (
                f"bid constraint: user {user_id} did not bid for event {event_id}"
                if explain
                else ""
            )
        if self._attendance[vpos] >= index.event_capacity[vpos]:
            return (
                f"capacity constraint: event {event_id} is full "
                f"(c_v = {int(index.event_capacity[vpos])})"
                if explain
                else ""
            )
        if self._load[upos] >= index.user_capacity[upos]:
            return (
                f"capacity constraint: user {user_id} is at capacity "
                f"(c_u = {int(index.user_capacity[upos])})"
                if explain
                else ""
            )
        conflicts = index.conflict_bits[vpos]
        for assigned in self._user_events[upos]:
            if conflicts >> assigned & 1:
                return (
                    f"conflict constraint: events {event_id} and "
                    f"{int(index.event_ids[assigned])} conflict for user {user_id}"
                    if explain
                    else ""
                )
        return None

    def can_add(self, event_id: int, user_id: int) -> bool:
        """Whether adding the pair keeps the arrangement feasible."""
        return self._addition_violation(event_id, user_id, explain=False) is None

    def _check_addition(self, event_id: int, user_id: int) -> None:
        problem = self._addition_violation(event_id, user_id, explain=True)
        if problem is not None:
            raise ArrangementError(problem)

    def add(self, event_id: int, user_id: int, check: bool = True) -> None:
        """Add a pair.

        ``check=False`` skips the duplicate, capacity and conflict checks
        (an unchecked re-add is a no-op); the ids and the bid constraint are
        checked either way.

        Raises:
            ArrangementError: for an unknown id or a non-bid pair; when
                ``check``, also for a pair that is already present or would
                break a capacity or conflict constraint of Definition 4.
        """
        if check:
            self._check_addition(event_id, user_id)
        index = self._idx
        vpos = index.event_pos.get(event_id)
        upos = index.user_pos.get(user_id)
        if vpos is None or upos is None or not index.is_bid_pair(upos, vpos):
            # Unchecked add of an unknown id or a non-bid pair.
            raise ArrangementError(
                self._addition_violation(event_id, user_id, explain=True)
            )
        if self._assigned[upos, vpos]:
            return  # unchecked re-add: keep set semantics, counters untouched
        self._assigned[upos, vpos] = True
        self._attendance[vpos] += 1
        self._load[upos] += 1
        self._user_events[upos].append(vpos)

    def remove(self, event_id: int, user_id: int) -> None:
        """Remove a pair.

        Raises:
            ArrangementError: if the pair is not present.
        """
        index = self._idx
        vpos = index.event_pos.get(event_id)
        upos = index.user_pos.get(user_id)
        if vpos is None or upos is None or not self._assigned[upos, vpos]:
            raise ArrangementError(f"pair ({event_id}, {user_id}) not in arrangement")
        self._assigned[upos, vpos] = False
        self._attendance[vpos] -= 1
        self._load[upos] -= 1
        self._user_events[upos].remove(vpos)

    @classmethod
    def from_pairs(
        cls,
        instance: IGEPAInstance,
        pairs: Iterable[tuple[int, int]],
        check: bool = True,
    ) -> "Arrangement":
        """Build an arrangement from ``(event_id, user_id)`` pairs."""
        arrangement = cls(instance)
        for event_id, user_id in pairs:
            arrangement.add(event_id, user_id, check=check)
        return arrangement

    # ------------------------------------------------------------------
    # Feasibility audit (full re-check, independent of incremental guards)
    # ------------------------------------------------------------------
    def _has_violation(self) -> bool:
        """Vectorized any-violation probe over the array state."""
        index = self._idx
        if np.any(self._attendance > index.event_capacity):
            return True
        if np.any(self._load > index.user_capacity):
            return True
        multi = np.flatnonzero(self._load >= 2)
        if multi.size:
            # A user attends conflicting events iff their assignment row hits
            # the conflict matrix: (B C) ∘ B has a positive entry.  Only rows
            # with two or more events can hit, so the product is restricted
            # to them — O(multi · |V|²) instead of O(|U| · |V|²).
            rows = self._assigned[multi]
            hits = rows.astype(np.float32) @ index.conflict_f32
            if bool(np.any(hits[rows] > 0.0)):
                return True
        return False

    def violations(self) -> list[str]:
        """All capacity and conflict violations in the current pair set
        (the bid constraint holds by construction)."""
        if not self._has_violation():
            return []
        instance = self.instance
        problems: list[str] = []
        by_event: dict[int, set[int]] = {}
        by_user: dict[int, set[int]] = {}
        for event_id, user_id in self:
            by_event.setdefault(event_id, set()).add(user_id)
            by_user.setdefault(user_id, set()).add(event_id)
        for event_id, users in sorted(by_event.items()):
            event = instance.event_by_id[event_id]
            if len(users) > event.capacity:
                problems.append(
                    f"capacity: event {event_id} has {len(users)} attendees, "
                    f"c_v = {event.capacity}"
                )
        for user_id, events in sorted(by_user.items()):
            user = instance.user_by_id[user_id]
            if len(events) > user.capacity:
                problems.append(
                    f"capacity: user {user_id} attends {len(events)} events, "
                    f"c_u = {user.capacity}"
                )
            ordered = sorted(events)
            for i, first in enumerate(ordered):
                for second in ordered[i + 1 :]:
                    if instance.conflicts(first, second):
                        problems.append(
                            f"conflict: user {user_id} attends conflicting events "
                            f"{first} and {second}"
                        )
        return problems

    def is_feasible(self) -> bool:
        """Full feasibility audit (Definition 4)."""
        return not self._has_violation()

    # ------------------------------------------------------------------
    # Utility (Definition 7)
    # ------------------------------------------------------------------
    def utility(self) -> float:
        """``β·Σ SI + (1-β)·Σ D`` over all assigned pairs.

        Gathers the pair weights from the index and sums them with
        :func:`math.fsum` — correctly rounded and independent of pair
        insertion order, so equal arrangements always report equal utility.
        """
        return math.fsum(self._idx.assigned_weight_total(self._assigned))

    def interest_total(self) -> float:
        """The Σ SI part of the utility (before the β weighting)."""
        return math.fsum(self._idx.assigned_si_total(self._assigned))

    def interaction_total(self) -> float:
        """The Σ D part of the utility (before the 1-β weighting)."""
        return float(self._idx.degrees @ self._load)

    def copy(self) -> "Arrangement":
        clone = Arrangement.__new__(Arrangement)
        clone.instance = self.instance
        clone._idx = self._idx
        clone._assigned = self._assigned.copy()
        clone._attendance = self._attendance.copy()
        clone._load = self._load.copy()
        clone._user_events = [list(events) for events in self._user_events]
        return clone

    def __repr__(self) -> str:
        return f"Arrangement(pairs={len(self)}, utility={self.utility():.4f})"
