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
:class:`~repro.model.index.InstanceIndex` positions: a grid of ``(|U|,
⌈|V|/64⌉)`` uint64 words, where bit ``p`` of row ``u`` means user position
``u`` attends event position ``p`` (the layout of the index's
``conflict_words``), plus per-event attendance and per-user load counters.
Every view reads the grid; each user's pairs come out in ascending event
position.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

from repro.model.errors import ArrangementError
from repro.model.index import mask_positions, word_positions
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
        # The arrangement's own storage, one bit per user x event cell:
        # |U| rows of ceil(|V|/64) uint64 words, |U|*|V|/8 bytes in all.
        self._words = np.zeros(  # igepa: ignore[IGP002]
            (index.num_users, -(-index.num_events // 64)), dtype="<u8"
        )
        self._attendance = np.zeros(index.num_events, dtype=np.int64)
        self._load = np.zeros(index.num_users, dtype=np.int64)

    @classmethod
    def from_positions(
        cls, instance: IGEPAInstance, upos: np.ndarray, vpos: np.ndarray
    ) -> "Arrangement":
        """Build an arrangement from parallel arrays of distinct
        (user position, event position) pairs, without capacity or conflict
        checks.

        Raises:
            ArrangementError: if a pair is not a bid pair.
        """
        arrangement = cls(instance)
        upos = np.asarray(upos, dtype=np.int64)
        vpos = np.asarray(vpos, dtype=np.int64)
        index = arrangement._idx
        if not index.pair_bid_mask(upos, vpos).all():
            raise ArrangementError("bid constraint: a pair is not a bid pair")
        # Unbuffered OR: several pairs of a user can share a word.
        np.bitwise_or.at(
            arrangement._words,
            (upos, vpos >> 6),
            np.left_shift(np.uint64(1), (vpos & 63).astype(np.uint64)),
        )
        arrangement._attendance += np.bincount(vpos, minlength=index.num_events)
        arrangement._load += np.bincount(upos, minlength=index.num_users)
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
        return bool(int(self._words[upos, vpos >> 6]) >> (vpos & 63) & 1)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Pairs user position by user position, each user's in ascending
        event position."""
        upos, vpos = self.assigned_positions()
        index = self._idx
        return zip(index.event_ids[vpos].tolist(), index.user_ids[upos].tolist())

    def events_of(self, user_id: int) -> set[int]:
        """Events currently assigned to the user."""
        index = self._idx
        upos = index.user_pos.get(user_id)
        if upos is None:
            return set()
        row = int.from_bytes(self._words[upos].tobytes(), "little")
        return set(index.event_ids[mask_positions(row)].tolist())

    def users_of(self, event_id: int) -> set[int]:
        """Users currently assigned to the event."""
        index = self._idx
        vpos = index.event_pos.get(event_id)
        if vpos is None:
            return set()
        column = self._words[:, vpos >> 6] & np.uint64(1 << (vpos & 63))
        return set(index.user_ids[np.flatnonzero(column)].tolist())

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
    def assignment_words(self) -> np.ndarray:
        """The ``(users, ⌈events/64⌉)`` uint64 word grid, in the layout of
        the index's ``conflict_words`` — live view, do not mutate."""
        return self._words

    def assigned_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Parallel ``(user position, event position)`` arrays of every
        pair, sorted by user position, then event position."""
        return word_positions(self._words)

    def assigned_mask(self, upos: np.ndarray, vpos: np.ndarray) -> np.ndarray:
        """Vectorized membership for (broadcastable) position arrays."""
        vpos = np.asarray(vpos, dtype=np.int64)
        words = self._words[np.asarray(upos, dtype=np.int64), vpos >> 6]
        return ((words >> (vpos & 63).astype(np.uint64)) & np.uint64(1)) != 0

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
        if int(self._words[upos, vpos >> 6]) >> (vpos & 63) & 1:
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
        hits = index.conflict_bits[vpos] & int.from_bytes(
            self._words[upos].tobytes(), "little"
        )
        if hits:
            # Name the user's first conflicting event in position order.
            first = (hits & -hits).bit_length() - 1
            return (
                f"conflict constraint: events {event_id} and "
                f"{int(index.event_ids[first])} conflict for user {user_id}"
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
        word = int(self._words[upos, vpos >> 6])
        bit = 1 << (vpos & 63)
        if word & bit:
            return  # unchecked re-add: keep set semantics, counters untouched
        self._words[upos, vpos >> 6] = word | bit
        self._attendance[vpos] += 1
        self._load[upos] += 1

    def remove(self, event_id: int, user_id: int) -> None:
        """Remove a pair.

        Raises:
            ArrangementError: if the pair is not present.
        """
        index = self._idx
        vpos = index.event_pos.get(event_id)
        upos = index.user_pos.get(user_id)
        word = bit = 0
        if vpos is not None and upos is not None:
            word, bit = int(self._words[upos, vpos >> 6]), 1 << (vpos & 63)
        if not word & bit:
            raise ArrangementError(f"pair ({event_id}, {user_id}) not in arrangement")
        self._words[upos, vpos >> 6] = word & ~bit
        self._attendance[vpos] -= 1
        self._load[upos] -= 1

    def remove_positions(self, upos: np.ndarray, vpos: np.ndarray) -> None:
        """Remove distinct assigned (user position, event position) pairs
        at once; raises :class:`ArrangementError` (removing none) if one is
        absent."""
        upos = np.asarray(upos, dtype=np.int64)
        vpos = np.asarray(vpos, dtype=np.int64)
        if not self.assigned_mask(upos, vpos).all():
            raise ArrangementError("a pair to remove is not in the arrangement")
        # Unbuffered AND: several pairs of a user can share a word.
        np.bitwise_and.at(
            self._words,
            (upos, vpos >> 6),
            ~np.left_shift(np.uint64(1), (vpos & 63).astype(np.uint64)),
        )
        self._attendance -= np.bincount(vpos, minlength=self._attendance.size)
        self._load -= np.bincount(upos, minlength=self._load.size)

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
        # A user attends conflicting events iff one of their pairs' σ row
        # hits their word row (σ has a zero diagonal).  Only users with two
        # or more events can hit, so only their pairs are probed.
        upos, vpos = self.assigned_positions()
        multi = self._load[upos] >= 2
        upos, vpos = upos[multi], vpos[multi]
        return bool((self._words[upos] & index.conflict_words[vpos]).any())

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
        :func:`math.fsum` — correctly rounded and independent of the order of
        the pairs, so equal arrangements always report equal utility.
        """
        return math.fsum(self._idx.pair_weights(*self.assigned_positions()).tolist())

    def interest_total(self) -> float:
        """The Σ SI part of the utility (before the β weighting)."""
        return math.fsum(self._idx.pair_si(*self.assigned_positions()).tolist())

    def interaction_total(self) -> float:
        """The Σ D part of the utility (before the 1-β weighting)."""
        return float(self._idx.degrees @ self._load)

    def copy(self) -> "Arrangement":
        clone = Arrangement.__new__(Arrangement)
        clone.instance = self.instance
        clone._idx = self._idx
        clone._words = self._words.copy()
        clone._attendance = self._attendance.copy()
        clone._load = self._load.copy()
        return clone

    def __repr__(self) -> str:
        return f"Arrangement(pairs={len(self)}, utility={self.utility():.4f})"
