"""Baseline algorithms from the paper's evaluation (§IV "Baselines").

* :class:`RandomU` — "Random-U [4]": scan users in random order; each user
  greedily joins a random feasible subset of their bids.
* :class:`RandomV` — "Random-V [4]": scan events in random order; each event
  admits random feasible bidders until full.
* :class:`GGGreedy` — "GG (an extension of the Greedy-GEACC algorithm [4])":
  globally greedy on the pair weight ``w(u, v)``, which extends
  Greedy-GEACC's interest-greedy rule to IGEPA's interaction-aware weight.

All three produce feasible arrangements by construction (each insertion is
checked against the bid, capacity and conflict constraints).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import ArrangementAlgorithm
from repro.model.arrangement import Arrangement
from repro.model.instance import IGEPAInstance


class RandomU(ArrangementAlgorithm):
    """Random user-side baseline.

    Users are visited in a uniformly random order; each user walks their bid
    list in a uniformly random order and joins every event that keeps the
    arrangement feasible (until the user's capacity is exhausted).
    """

    name = "random-u"

    def _solve(
        self, instance: IGEPAInstance, rng: np.random.Generator
    ) -> tuple[Arrangement, dict]:
        arrangement = Arrangement(instance)
        users = list(instance.users)
        rng.shuffle(users)
        attempts = 0
        for user in users:
            bids = list(user.bids)
            rng.shuffle(bids)
            for event_id in bids:
                if arrangement.load(user.user_id) >= user.capacity:
                    break
                attempts += 1
                if arrangement.can_add(event_id, user.user_id):
                    arrangement.add(event_id, user.user_id, check=False)
        return arrangement, {"attempted_pairs": attempts}


class RandomV(ArrangementAlgorithm):
    """Random event-side baseline.

    Events are visited in a uniformly random order; each event admits
    bidders drawn in a uniformly random order while it has remaining
    capacity and the bidder can feasibly attend.
    """

    name = "random-v"

    def _solve(
        self, instance: IGEPAInstance, rng: np.random.Generator
    ) -> tuple[Arrangement, dict]:
        arrangement = Arrangement(instance)
        events = list(instance.events)
        rng.shuffle(events)
        attempts = 0
        for event in events:
            bidders = instance.bidders(event.event_id)
            rng.shuffle(bidders)
            for user_id in bidders:
                if arrangement.attendance(event.event_id) >= event.capacity:
                    break
                attempts += 1
                if arrangement.can_add(event.event_id, user_id):
                    arrangement.add(event.event_id, user_id, check=False)
        return arrangement, {"attempted_pairs": attempts}


class GGGreedy(ArrangementAlgorithm):
    """GG: global greedy on ``w(u, v)`` (extension of Greedy-GEACC [4]).

    All candidate (event, user) bid pairs are ordered by decreasing weight
    and inserted when feasible.  Because weights are static and feasibility
    only shrinks as pairs are added, a single pass over the sorted pairs is
    exactly the iterated "take the best feasible pair" greedy.

    Deterministic: ties break on (event id, user id); the RNG is unused.
    """

    name = "gg"

    def _solve(
        self, instance: IGEPAInstance, rng: np.random.Generator
    ) -> tuple[Arrangement, dict]:
        index = instance.index
        if index.num_bids == 0:
            return Arrangement(instance), {"candidate_pairs": 0}
        # One row per bid pair, straight from the CSR incidence.
        upos = index.bid_user_positions
        vpos = index.bid_indices
        weights = index.bid_weights
        user_ids = index.user_ids[upos]
        event_ids = index.event_ids[vpos]
        # Sort by (-w, event_id, user_id): negation of IEEE doubles is exact,
        # so the order matches the tuple sort it replaces bit for bit.
        order = np.lexsort((user_ids, event_ids, -weights))

        # Greedy scan over plain Python scalars (cheaper than per-element
        # ndarray indexing); the arrangement is assembled afterwards.
        attendance = [0] * index.num_events
        load = [0] * index.num_users
        event_cap = index.event_capacity.tolist()
        user_cap = index.user_capacity.tolist()
        # Assigned event positions per user, as conflict-bitmask operands.
        assigned_bits = [0] * index.num_users
        conflict_bits = index.conflict_bits
        upos_list = upos.tolist()
        vpos_list = vpos.tolist()
        survivors: list[tuple[int, int]] = []
        for k in order.tolist():
            i = upos_list[k]
            j = vpos_list[k]
            if attendance[j] >= event_cap[j] or load[i] >= user_cap[i]:
                continue
            if conflict_bits[j] & assigned_bits[i]:
                continue
            attendance[j] += 1
            load[i] += 1
            assigned_bits[i] |= 1 << j
            survivors.append((int(event_ids[k]), int(user_ids[k])))
        arrangement = Arrangement.from_pairs(instance, survivors, check=False)
        return arrangement, {"candidate_pairs": index.num_bids}
