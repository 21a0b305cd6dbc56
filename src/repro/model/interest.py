"""Interest functions ``SI(l_v, l_u) ∈ [0, 1]`` (Definition 5).

The paper's real-data pipeline computes interest "based on their attributes
as in [4]" (She et al., ICDE 2015), which uses the similarity of event/user
attribute vectors — realized here as :class:`CosineInterest`.  The synthetic
pipeline samples interest values uniformly — realized as
:class:`TabulatedInterest` filled by the generator.  :class:`JaccardInterest`
covers category-tag data.

Every implementation guarantees values in ``[0, 1]``.

An interest function is an *input*: SI is only read on bid pairs, and each
instance holds the value of every bid in its store's ``bid_si`` column,
filled from the function once (:func:`pair_interest`).  Churn re-weights
and splices bids in that column and never rewrites the function.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.model.entities import Event, User
from repro.model.errors import InstanceValidationError


class InterestFunction(ABC):
    """Interface for SI: (event, user) -> [0, 1]."""

    @abstractmethod
    def interest(self, event: Event, user: User) -> float:
        """The user's interest in the event, in ``[0, 1]``."""

    def __call__(self, event: Event, user: User) -> float:
        return self.interest(event, user)

    def to_dict(self) -> dict:
        """JSON-serializable representation (see :func:`interest_from_dict`)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support serialization"
        )


class CosineInterest(InterestFunction):
    """Cosine similarity of the attribute vectors, clipped to ``[0, 1]``.

    Vectors of unequal length or zero norm yield interest 0 — a user with no
    attribute profile expresses no measurable interest.
    """

    def interest(self, event: Event, user: User) -> float:
        a, b = event.attributes, user.attributes
        if a.shape != b.shape or a.size == 0:
            return 0.0
        norm = float(np.linalg.norm(a) * np.linalg.norm(b))
        if norm == 0.0:
            return 0.0
        return float(np.clip(float(a @ b) / norm, 0.0, 1.0))

    def to_dict(self) -> dict:
        return {"kind": "cosine"}


class JaccardInterest(InterestFunction):
    """Jaccard similarity of the category tag sets.

    ``|categories_v ∩ categories_u| / |categories_v ∪ categories_u|``; 0 when
    both sets are empty.
    """

    def interest(self, event: Event, user: User) -> float:
        union = event.categories | user.categories
        if not union:
            return 0.0
        return len(event.categories & user.categories) / len(union)

    def to_dict(self) -> dict:
        return {"kind": "jaccard"}


class TabulatedInterest(InterestFunction):
    """Explicit interest values keyed by ``(event_id, user_id)``.

    Used by the synthetic generator ("the interest values of users in events
    are uniformly sampled").  Missing pairs default to ``default`` (0.0),
    covering non-bid pairs that are never queried by feasible arrangements.
    The stream generator passes an empty table: the values it samples live
    in the store's ``bid_si`` column only.

    Raises:
        ValueError: if any stored value is outside ``[0, 1]``.
    """

    def __init__(
        self, values: Mapping[tuple[int, int], float], default: float = 0.0
    ) -> None:
        self._values: dict[tuple[int, int], float] = {}
        for (event_id, user_id), value in values.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"interest for event {event_id}, user {user_id} is {value}, "
                    "expected a value in [0, 1]"
                )
            self._values[(int(event_id), int(user_id))] = float(value)
        if not 0.0 <= default <= 1.0:
            raise ValueError(f"default interest {default} outside [0, 1]")
        self.default = float(default)

    def interest(self, event: Event, user: User) -> float:
        return self._values.get((event.event_id, user.user_id), self.default)

    def items(self) -> dict[tuple[int, int], float]:
        """A copy of the stored ``(event_id, user_id) -> value`` table."""
        return dict(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def to_dict(self) -> dict:
        return {
            "kind": "tabulated",
            "default": self.default,
            "values": [
                [event_id, user_id, value]
                for (event_id, user_id), value in sorted(self._values.items())
            ],
        }


class ScaledDotInterest(InterestFunction):
    """Dot product of attribute vectors squashed into ``[0, 1]``.

    ``SI = clip(a @ b, 0, 1)`` — appropriate when attribute vectors are
    normalized topic distributions (each sums to 1), where the dot product is
    the probability two topic draws coincide.
    """

    def interest(self, event: Event, user: User) -> float:
        a, b = event.attributes, user.attributes
        if a.shape != b.shape or a.size == 0:
            return 0.0
        return float(np.clip(float(a @ b), 0.0, 1.0))

    def to_dict(self) -> dict:
        return {"kind": "scaled-dot"}


def validated_interest(
    interest_fn: Callable[[Event, User], float], event: Event, user: User
) -> float:
    """Evaluate SI on one pair, enforcing Definition 5's ``[0, 1]`` range."""
    value = interest_fn(event, user)
    if not 0.0 <= value <= 1.0:
        raise InstanceValidationError(
            f"interest function returned {value} for event "
            f"{event.event_id}, user {user.user_id}; Definition 5 "
            "requires [0, 1]"
        )
    return value


def pair_interest(
    interest: InterestFunction,
    event_ids: Sequence[int],
    user_ids: Sequence[int],
    entities: Callable[[], Iterable[tuple[Event, User]]],
) -> np.ndarray:
    """SI of each ``(event_ids[k], user_ids[k])`` pair, in order.

    A plain :class:`TabulatedInterest` answers from its table in one lookup
    pass (its values were range-checked when the table was built).  Any
    other function, a subclass that overrides ``interest`` included, is
    called through :func:`validated_interest` on the ``(event, user)``
    objects ``entities()`` yields, one per pair in the same order;
    ``entities`` is only called on that path.
    """
    count = len(event_ids)
    if (
        isinstance(interest, TabulatedInterest)
        and type(interest).interest is TabulatedInterest.interest
    ):
        get, default = interest._values.get, interest.default
        return np.fromiter(
            (get(pair, default) for pair in zip(event_ids, user_ids)),
            dtype=np.float64,
            count=count,
        )
    call = interest.interest
    return np.fromiter(
        (validated_interest(call, event, user) for event, user in entities()),
        dtype=np.float64,
        count=count,
    )


def interest_from_dict(payload: dict) -> InterestFunction:
    """Inverse of the ``to_dict`` methods above."""
    kind = payload.get("kind")
    if kind == "cosine":
        return CosineInterest()
    if kind == "jaccard":
        return JaccardInterest()
    if kind == "scaled-dot":
        return ScaledDotInterest()
    if kind == "tabulated":
        values = {
            (int(event_id), int(user_id)): float(value)
            for event_id, user_id, value in payload["values"]
        }
        return TabulatedInterest(values, default=payload.get("default", 0.0))
    raise ValueError(f"unknown interest function kind {kind!r}")
