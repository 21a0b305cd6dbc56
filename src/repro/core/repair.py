"""Targeted arrangement repair after a churn delta.

:func:`repro.model.delta.apply_delta` carries an arrangement over to the
successor instance with every invalidated pair dropped — feasible, but
usually improvable: dropped pairs free event seats and user capacity, new
users and bids open fresh options, dissolved conflicts unlock combinations.
:func:`repair` closes that gap by running the local-search move engine
*scoped to the touched entities only* (add/upgrade moves over the touched
users; refill and evict moves over the touched events, so freed seats are
re-offered to their — untouched — bidder pools).  Per-batch scan cost is
proportional to the touched set (after the first pass, to the part of it
that earlier moves marked; see :mod:`repro.core.local_search`), on top of
a snapshot of capacities and loads (O(|U| + |V|)) — not to a full
re-optimization of the platform.

:class:`repro.service.engine.TickEngine` applies each churn batch and then
runs :func:`repair` as its repair stage; replay, simulate and serve all go
through it.
"""

from __future__ import annotations

from repro.core.local_search import improve
from repro.model.delta import DeltaResult


def repair(result: DeltaResult, max_passes: int = 20) -> dict:
    """Re-optimize a carried-over arrangement around the churned entities.

    Runs the standard local-search moves restricted to the delta's touched
    users/events.  The arrangement stays feasible throughout (every move is
    feasibility-checked) and its utility never decreases.

    The scope is fixed for the whole call: capacity freed *by repair
    moves themselves* on untouched entities (e.g. a touched user upgrading
    away from an untouched event) is not chased within the batch — a
    deliberate cost/quality trade measured by the churn bench, which holds
    repaired utility at ≈99% of a full re-solve; a periodic full
    :func:`~repro.core.local_search.improve` (or the next batch touching
    those entities) recovers the remainder.

    Args:
        result: an :func:`apply_delta` result whose ``arrangement`` is set.
        max_passes: cap on improvement passes.

    Returns:
        Move counts from :func:`repro.core.local_search.improve`, plus
        ``{"touched_users": ..., "touched_events": ..., "dropped_pairs":
        ...}`` sizes.

    Raises:
        ValueError: when the result carries no arrangement.
    """
    if result.arrangement is None:
        raise ValueError("DeltaResult has no arrangement to repair")
    index = result.instance.index
    user_positions = [
        index.user_pos[user_id]
        for user_id in result.touched_users
        if user_id in index.user_pos
    ]
    event_positions = [
        index.event_pos[event_id]
        for event_id in result.touched_events
        if event_id in index.event_pos
    ]
    moves = improve(
        result.instance,
        result.arrangement,
        max_passes=max_passes,
        user_positions=user_positions,
        event_positions=event_positions,
        refill_events=True,
    )
    moves.update(
        touched_users=len(user_positions),
        touched_events=len(event_positions),
        dropped_pairs=len(result.dropped_pairs),
    )
    return moves

