"""Meetup-like real-dataset simulator (§IV "Real Dataset").

The paper evaluates on a crawl of Meetup San Francisco: **190 events and 2811
users**, with event start times and durations, user groups, and attendance
histories.  The raw crawl is not redistributable; this module generates raw
Meetup-shaped fields with realistic marginals and then applies the paper's
own construction *verbatim*, so only the raw fields are substituted:

1. events carry a start time and a duration; **two events conflict iff they
   overlap in time**;
2. "only some events specify their capacities.  For those without capacity
   information, we set it to the total number of users";
3. "we set each user's capacity as twice the number of events he/she
   attended";
4. interests are computed from attribute vectors (topic-weight vectors +
   cosine similarity, following GEACC [4]);
5. "for a user u, we use the events that he/she actually attended and
   another c_u/2 most interesting events for u as his/her bid";
6. "if two users join at least one common group, they have an edge in G".

The simulated raw fields: groups with category-affinity profiles, events
organized by groups at evening-skewed times, users joining size-biased
groups, and attendance drawn by interest from the user's groups with a
no-overlap constraint (one cannot attend two overlapping events).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.model.conflicts import TimeIntervalConflict
from repro.model.entities import Event, User
from repro.model.instance import IGEPAInstance
from repro.model.interest import CosineInterest
from repro.social.generators import empty_graph
from repro.social.graph import Graph

HOURS_PER_DAY = 24.0


@dataclass(frozen=True)
class MeetupConfig:
    """Knobs of the Meetup-like simulator (defaults = the paper's SF crawl).

    Attributes:
        num_events: number of events (paper: 190).
        num_users: number of users (paper: 2811).
        num_groups: Meetup groups organizing the events.
        num_categories: dimension of the topic/attribute vectors.
        horizon_days: event start times spread over this horizon.
        mean_duration_hours: lognormal mean of event durations.
        capacity_specified_fraction: fraction of events that specify a
            capacity ("only some events specify their capacities").
        min_specified_capacity / max_specified_capacity: uniform range for
            specified capacities.
        mean_events_attended: Poisson mean (shifted to >= 1) of each user's
            attendance-history length.
        max_events_attended: hard cap on attendance-history length.  A user
            who attended ``k`` events gets ``c_u = 2k`` and ``2k`` bids, so
            their admissible-set collection can reach ``2^{2k}``; a one-month
            crawl has small ``k``, and the cap keeps the benchmark LP at the
            size the paper's "users do not bid for too many events"
            assumption implies.
        mean_groups_per_user: Poisson mean (shifted to >= 1) of group
            memberships per user.
        beta: utility balance parameter.
        materialize_social_graph: build the explicit common-group graph
            (quadratic in group sizes); otherwise exact degrees are computed
            from group membership unions without materializing edges.
    """

    num_events: int = 190
    num_users: int = 2811
    num_groups: int = 40
    num_categories: int = 12
    horizon_days: float = 30.0
    mean_duration_hours: float = 2.5
    capacity_specified_fraction: float = 0.4
    min_specified_capacity: int = 10
    max_specified_capacity: int = 60
    mean_events_attended: float = 2.5
    max_events_attended: int = 4
    mean_groups_per_user: float = 2.0
    beta: float = 0.5
    materialize_social_graph: bool = False

    def __post_init__(self) -> None:
        if self.num_events < 0 or self.num_users < 0:
            raise ValueError("num_events and num_users must be >= 0")
        if self.num_groups < 1:
            raise ValueError("need at least one group")
        if self.num_categories < 1:
            raise ValueError("need at least one category")
        if not 0.0 <= self.capacity_specified_fraction <= 1.0:
            raise ValueError("capacity_specified_fraction must be in [0, 1]")
        if not 1 <= self.min_specified_capacity <= self.max_specified_capacity:
            raise ValueError(
                "need 1 <= min_specified_capacity <= max_specified_capacity"
            )
        if self.mean_events_attended < 1.0:
            raise ValueError("mean_events_attended must be >= 1")
        if self.max_events_attended < 1:
            raise ValueError("max_events_attended must be >= 1")

    def with_overrides(self, **kwargs) -> "MeetupConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


SF_DEFAULTS = MeetupConfig()


def _topic_vector(
    rng: np.random.Generator, dimension: int, focus: int, concentration: float = 6.0
) -> np.ndarray:
    """A normalized topic-weight vector peaked at category ``focus``."""
    alpha = np.ones(dimension)
    alpha[focus] = concentration
    return rng.dirichlet(alpha)


def _evening_skewed_start(rng: np.random.Generator, horizon_days: float) -> float:
    """An event start time (hours): uniform day, evening-biased hour."""
    day = float(rng.integers(int(horizon_days)))
    # Meetup events cluster around 18:00-20:00; mix a daytime tail in.
    if rng.random() < 0.7:
        hour = float(rng.normal(19.0, 1.5))
    else:
        hour = float(rng.uniform(9.0, 22.0))
    hour = float(np.clip(hour, 7.0, 22.5))
    return day * HOURS_PER_DAY + hour


def generate_meetup(
    config: MeetupConfig | None = None,
    seed: int | None = None,
    **overrides,
) -> IGEPAInstance:
    """Generate a Meetup-like IGEPA instance following the paper's recipe.

    Args:
        config: simulator configuration (SF-crawl scale when omitted).
        seed: RNG seed.
        **overrides: convenience field overrides applied to ``config``.
    """
    if config is None:
        config = SF_DEFAULTS
    if overrides:
        config = config.with_overrides(**overrides)
    rng = np.random.default_rng(seed)
    dimension = config.num_categories

    # ------------------------------------------------------------------
    # Groups: category-affinity profiles and popularity weights.
    # ------------------------------------------------------------------
    group_focus = rng.integers(dimension, size=config.num_groups)
    group_profiles = np.stack(
        [_topic_vector(rng, dimension, int(focus)) for focus in group_focus]
    )
    group_popularity = rng.pareto(1.5, size=config.num_groups) + 1.0
    group_popularity /= group_popularity.sum()

    # ------------------------------------------------------------------
    # Events: organized by groups, evening-skewed times, lognormal durations.
    # ------------------------------------------------------------------
    event_group = (
        rng.choice(config.num_groups, size=config.num_events, p=group_popularity)
        if config.num_events
        else np.empty(0, dtype=int)
    )
    events: list[Event] = []
    event_vectors = np.zeros((config.num_events, dimension))
    for event_id in range(config.num_events):
        group = int(event_group[event_id])
        vector = 0.7 * group_profiles[group] + 0.3 * _topic_vector(
            rng, dimension, int(group_focus[group])
        )
        vector /= vector.sum()
        event_vectors[event_id] = vector
        start = _evening_skewed_start(rng, config.horizon_days)
        duration = float(
            np.clip(rng.lognormal(np.log(config.mean_duration_hours), 0.4), 0.5, 8.0)
        )
        if rng.random() < config.capacity_specified_fraction:
            capacity = int(
                rng.integers(
                    config.min_specified_capacity, config.max_specified_capacity + 1
                )
            )
        else:
            capacity = config.num_users  # "set it to the total number of users"
        events.append(
            Event(
                event_id=event_id,
                capacity=capacity,
                attributes=vector,
                start_time=start,
                duration=duration,
            )
        )

    # ------------------------------------------------------------------
    # Users: size-biased group memberships and blended topic profiles.
    # ------------------------------------------------------------------
    user_ids = list(range(config.num_users))
    memberships: list[list[int]] = []
    user_vectors = np.zeros((config.num_users, dimension))
    for user_id in user_ids:
        count = 1 + int(rng.poisson(max(config.mean_groups_per_user - 1.0, 0.0)))
        count = min(count, config.num_groups)
        groups = rng.choice(
            config.num_groups, size=count, replace=False, p=group_popularity
        )
        memberships.append([int(g) for g in groups])
        profile = group_profiles[groups].mean(axis=0)
        noise = rng.dirichlet(np.ones(dimension))
        vector = 0.8 * profile + 0.2 * noise
        user_vectors[user_id] = vector / vector.sum()

    # Interest used for attendance and bid construction: cosine similarity
    # (the same function the instance will expose, vectorized here).
    if config.num_events and config.num_users:
        event_norms = np.linalg.norm(event_vectors, axis=1)
        user_norms = np.linalg.norm(user_vectors, axis=1)
        scores = (user_vectors @ event_vectors.T) / np.outer(
            user_norms, np.where(event_norms == 0.0, 1.0, event_norms)
        )
    else:
        # Degenerate branch: one of the dimensions is zero, so this dense
        # allocation is an empty matrix.
        scores = np.zeros(  # igepa: ignore[IGP002]
            (config.num_users, config.num_events)
        )

    events_by_group: dict[int, list[int]] = {}
    for event_id, group in enumerate(event_group):
        events_by_group.setdefault(int(group), []).append(event_id)

    users: list[User] = []
    conflict = TimeIntervalConflict()
    for user_id in user_ids:
        # Attendance history: interest-weighted draws from the user's groups'
        # events, greedily skipping time overlaps (one body, one place).
        own_events = [
            event_id
            for group in memberships[user_id]
            for event_id in events_by_group.get(group, [])
        ]
        pool = own_events if own_events else list(range(config.num_events))
        attended: list[int] = []
        if pool:
            target = 1 + int(rng.poisson(config.mean_events_attended - 1.0))
            target = min(target, config.max_events_attended)
            weights = scores[user_id, pool]
            weights = np.clip(weights, 1e-9, None)
            order = list(
                rng.choice(
                    pool,
                    size=min(len(pool), max(target * 3, target)),
                    replace=False,
                    p=weights / weights.sum(),
                )
            )
            for event_id in order:
                if len(attended) >= target:
                    break
                event = events[int(event_id)]
                if any(
                    conflict.conflicts(event, events[chosen]) for chosen in attended
                ):
                    continue
                attended.append(int(event_id))
        capacity = 2 * len(attended)  # "twice the number of events attended"
        # Bids: attended events plus the c_u / 2 most interesting others.
        extra = capacity // 2
        ranked = np.argsort(-scores[user_id])
        additions = [
            int(event_id)
            for event_id in ranked
            if int(event_id) not in attended
        ][:extra]
        bids = tuple(sorted(set(attended) | set(additions)))
        users.append(
            User(
                user_id=user_id,
                capacity=capacity,
                attributes=user_vectors[user_id],
                bids=bids,
            )
        )

    # ------------------------------------------------------------------
    # Social network: edge iff at least one common group.
    # ------------------------------------------------------------------
    members_of_group: dict[int, list[int]] = {}
    for user_id, groups in enumerate(memberships):
        for group in groups:
            members_of_group.setdefault(group, []).append(user_id)

    if config.materialize_social_graph:
        social: Graph = Graph(nodes=user_ids)
        for members in members_of_group.values():
            for i, first in enumerate(members):
                for second in members[i + 1 :]:
                    if not social.has_edge(first, second):
                        social.add_edge(first, second)
        degrees = None
    else:
        social = empty_graph(user_ids)
        degrees = {}
        member_sets = {
            group: set(members) for group, members in members_of_group.items()
        }
        denominator = max(config.num_users - 1, 1)
        for user_id, groups in enumerate(memberships):
            neighbours: set[int] = set()
            for group in groups:
                neighbours |= member_sets[group]
            neighbours.discard(user_id)
            degrees[user_id] = len(neighbours) / denominator

    return IGEPAInstance(
        events=events,
        users=users,
        conflict=conflict,
        interest=CosineInterest(),
        social=social,
        beta=config.beta,
        name=f"meetup-sim(|V|={config.num_events},|U|={config.num_users})",
        degrees=degrees,
    )
