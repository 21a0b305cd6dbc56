"""Fluent builder for hand-constructed IGEPA instances.

Generators cover the paper's workloads; applications embedding this library
usually have *their own* events and users.  :class:`InstanceBuilder` grows
an instance incrementally with validation at ``build()`` time::

    instance = (
        InstanceBuilder(beta=0.6)
        .event(1, capacity=30, start=18.0, duration=2.0)
        .event(2, capacity=10, start=19.0, duration=2.0)
        .user(100, capacity=1, bids=[1, 2])
        .friends(100, 101)
        .interest(1, 100, 0.9)
        .build()
    )

Conflicts default to time-interval overlap when any event has temporal
attributes, and to explicitly declared pairs otherwise; both can be
combined.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.model.columnar import ColumnarStore
from repro.model.conflicts import (
    CompositeConflict,
    ConflictFunction,
    MatrixConflict,
    NoConflict,
    TimeIntervalConflict,
)
from repro.model.entities import Event, User
from repro.model.instance import IGEPAInstance
from repro.model.interest import InterestFunction, TabulatedInterest
from repro.social.graph import Graph


class InstanceBuilder:
    """Accumulates events, users, ties and interests; validates on build.

    Args:
        beta: utility balance parameter (Definition 7).
        name: label for the built instance.
    """

    def __init__(self, beta: float = 0.5, name: str = "custom") -> None:
        self._beta = beta
        self._name = name
        self._events: list[Event] = []
        self._users: list[User] = []
        self._edges: list[tuple[int, int]] = []
        self._interest: dict[tuple[int, int], float] = {}
        self._conflict_pairs: list[tuple[int, int]] = []
        self._interest_function: InterestFunction | None = None
        self._default_interest = 0.0

    # ------------------------------------------------------------------
    # Entities
    # ------------------------------------------------------------------
    def event(
        self,
        event_id: int,
        capacity: int,
        *,
        start: float | None = None,
        duration: float | None = None,
        attributes: Iterable[float] = (),
        categories: Iterable[str] = (),
    ) -> "InstanceBuilder":
        """Add an event (chainable)."""
        self._events.append(
            Event(
                event_id=event_id,
                capacity=capacity,
                attributes=np.asarray(list(attributes), dtype=float),
                start_time=start,
                duration=duration,
                categories=frozenset(categories),
            )
        )
        return self

    def user(
        self,
        user_id: int,
        capacity: int,
        bids: Iterable[int] = (),
        *,
        attributes: Iterable[float] = (),
        categories: Iterable[str] = (),
    ) -> "InstanceBuilder":
        """Add a user with their bid list (chainable)."""
        self._users.append(
            User(
                user_id=user_id,
                capacity=capacity,
                attributes=np.asarray(list(attributes), dtype=float),
                bids=tuple(bids),
                categories=frozenset(categories),
            )
        )
        return self

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def friends(self, first: int, second: int) -> "InstanceBuilder":
        """Declare a social tie between two users."""
        self._edges.append((first, second))
        return self

    def friend_group(self, user_ids: Iterable[int]) -> "InstanceBuilder":
        """Declare a clique of mutual ties (e.g. a Meetup group)."""
        members = list(user_ids)
        for i, first in enumerate(members):
            for second in members[i + 1 :]:
                self._edges.append((first, second))
        return self

    def interest(self, event_id: int, user_id: int, value: float) -> "InstanceBuilder":
        """Set SI(event, user) explicitly (tabulated interest mode)."""
        self._interest[(event_id, user_id)] = value
        return self

    def interest_function(self, function: InterestFunction) -> "InstanceBuilder":
        """Use an attribute-driven interest function instead of a table.

        Overrides any values set via :meth:`interest`.
        """
        self._interest_function = function
        return self

    def default_interest(self, value: float) -> "InstanceBuilder":
        """Default SI for pairs not covered by :meth:`interest`."""
        self._default_interest = value
        return self

    def conflict(self, first_event: int, second_event: int) -> "InstanceBuilder":
        """Declare an explicit conflict between two events."""
        self._conflict_pairs.append((first_event, second_event))
        return self

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _conflict_function(self, temporal: bool) -> ConflictFunction:
        members: list[ConflictFunction] = []
        if temporal:
            members.append(TimeIntervalConflict())
        if self._conflict_pairs:
            members.append(MatrixConflict(self._conflict_pairs))
        if not members:
            return NoConflict()
        if len(members) == 1:
            return members[0]
        return CompositeConflict(members)

    def build(self) -> IGEPAInstance:
        """Validate and return the instance.

        Raises:
            InstanceValidationError: via :class:`IGEPAInstance` on duplicate
                ids, dangling bids or ties to unknown users.
        """
        interest: InterestFunction
        if self._interest_function is not None:
            interest = self._interest_function
        else:
            interest = TabulatedInterest(
                self._interest, default=self._default_interest
            )
        # One packing pass replaces the per-entity generator scans: the
        # temporal check is the presence of the store's start column, the
        # social node list is the id column, and the instance wraps the
        # store.
        store = ColumnarStore.from_entities(self._users, self._events)
        social = Graph(nodes=store.user_ids.tolist())
        for first, second in self._edges:
            social.add_edge(first, second)
        return IGEPAInstance.from_store(
            store,
            conflict=self._conflict_function(store.event_start is not None),
            interest=interest,
            social=social,
            beta=self._beta,
            name=self._name,
        )
