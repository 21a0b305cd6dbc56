"""Arrangement quality metrics beyond the paper's single utility number.

An EBSN platform evaluating an arrangement cares about more than the
aggregate objective: how full events are, how fairly utility spreads over
users, how socially cohesive each event's audience is.  These metrics are
used by the reporting layer and the examples, and give the test suite
orthogonal probes into algorithm behaviour.

All functions take the instance and a (feasible) arrangement; none mutate.
"""

from __future__ import annotations

import numpy as np

from repro.model.arrangement import Arrangement
from repro.model.instance import IGEPAInstance


def event_fill_rates(
    instance: IGEPAInstance, arrangement: Arrangement
) -> dict[int, float]:
    """Per event: assigned attendance / capacity (0.0 for capacity-0 events)."""
    index = instance.index
    capacity = index.event_capacity
    attendance = arrangement.attendance_counts.astype(np.float64)
    rates = np.divide(
        attendance,
        capacity,
        out=np.zeros(index.num_events, dtype=np.float64),
        where=capacity > 0,
    )
    return dict(zip(index.event_ids.tolist(), rates.tolist()))


def mean_fill_rate(instance: IGEPAInstance, arrangement: Arrangement) -> float:
    """Average fill rate over events with positive capacity."""
    index = instance.index
    rates = np.fromiter(
        event_fill_rates(instance, arrangement).values(),
        dtype=np.float64,
        count=index.num_events,
    )
    positive = index.event_capacity > 0
    return float(rates[positive].mean()) if positive.any() else 0.0


def user_coverage(instance: IGEPAInstance, arrangement: Arrangement) -> float:
    """Fraction of users assigned to at least one event."""
    if instance.num_users == 0:
        return 0.0
    served = int((arrangement.load_counts > 0).sum())
    return served / instance.num_users


def user_utilities(
    instance: IGEPAInstance, arrangement: Arrangement
) -> dict[int, float]:
    """Per user: the utility contributed by that user's assignments, summed
    in ascending event position."""
    index = instance.index
    upos, vpos = arrangement.assigned_positions()
    totals = np.bincount(
        upos, weights=index.pair_weights(upos, vpos), minlength=index.num_users
    ).astype(np.float64, copy=False)  # int64 zeros when there are no pairs
    return dict(zip(index.user_ids.tolist(), totals.tolist()))


def jain_fairness(instance: IGEPAInstance, arrangement: Arrangement) -> float:
    """Jain's fairness index over per-user utilities.

    1.0 when every user receives equal utility; approaches ``1/n`` when one
    user takes everything.  Users with no bids are excluded (they cannot
    receive utility by construction).
    """
    index = instance.index
    utilities = user_utilities(instance, arrangement)
    # user_utilities keys its dict in index user order, so the bid-count
    # filter is one vectorized mask instead of a per-user lookup.
    totals = np.fromiter(
        utilities.values(), dtype=np.float64, count=len(utilities)
    )
    values = totals[np.diff(index.bid_indptr) > 0]
    if values.size == 0:
        return 1.0
    denominator = values.size * float(np.sum(values**2))
    if denominator == 0.0:
        return 1.0
    return float(np.sum(values)) ** 2 / denominator


def event_social_cohesion(
    instance: IGEPAInstance, arrangement: Arrangement, event_id: int
) -> float:
    """Fraction of attendee pairs at the event with a social tie.

    Requires a materialized social graph; instances using degree overrides
    (large-scale generators) have no edge structure to measure, in which
    case this raises ``ValueError``.
    """
    if instance.has_degree_overrides:
        raise ValueError(
            "social cohesion needs an explicit social graph; this instance "
            "uses degree overrides (sampled degrees without a graph)"
        )
    attendees = sorted(arrangement.users_of(event_id))
    if len(attendees) < 2:
        return 0.0
    ties = 0
    pairs = 0
    for i, first in enumerate(attendees):
        for second in attendees[i + 1 :]:
            pairs += 1
            if instance.social.has_edge(first, second):
                ties += 1
    return ties / pairs


def interaction_lift(instance: IGEPAInstance, arrangement: Arrangement) -> float:
    """Mean D(G, u) of assigned users relative to the population mean.

    > 1.0 means the arrangement preferentially admitted socially active
    users — the behaviour the interaction term is designed to induce.
    Returns 1.0 when either mean is degenerate (no users / zero degrees).
    """
    if not len(arrangement) or instance.num_users == 0:
        return 1.0
    degrees = instance.index.degrees
    assigned_mean = float(degrees[arrangement.load_counts > 0].mean())
    population_mean = float(degrees.mean())
    if population_mean == 0.0:
        return 1.0
    return assigned_mean / population_mean


def summarize(instance: IGEPAInstance, arrangement: Arrangement) -> dict:
    """All scalar metrics in one dict (used by reports and examples)."""
    return {
        "utility": arrangement.utility(),
        "pairs": len(arrangement),
        "interest_total": arrangement.interest_total(),
        "interaction_total": arrangement.interaction_total(),
        "mean_fill_rate": mean_fill_rate(instance, arrangement),
        "user_coverage": user_coverage(instance, arrangement),
        "jain_fairness": jain_fairness(instance, arrangement),
        "interaction_lift": interaction_lift(instance, arrangement),
    }
