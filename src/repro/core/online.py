"""Online IGEPA: users arrive one at a time and are assigned irrevocably.

The paper studies the *global* (offline) problem; its related work ([5],
She et al. TKDE 2016) extends conflict-aware arrangement to the online
setting where users register on the platform over time.  This module
implements that variant on top of the IGEPA model as an extension feature:

* :class:`OnlineGreedy` — on arrival, give the user their *heaviest feasible
  admissible event set* under the remaining event capacities (brute force
  over ``A_u``, which the paper's few-bids assumption keeps small).  The
  enumeration is memoized per user behind a content fingerprint (capacity,
  bid list, conflict submatrix), so re-serving a user — repeated
  competitive-ratio runs, the serving loop's requeues — skips the brute
  force until churn actually changes their options;
* :class:`OnlineRandom` — on arrival, walk the user's bids in random order
  and take whatever fits (the natural online baseline);
* :func:`serve_greedy_walk` — the *degraded* serving path: a single
  descending-weight bid-walk with no enumeration at all, used by admission
  control under burst;
* :func:`competitive_ratio` — empirical ratio of an online algorithm against
  the offline LP upper bound.

Both algorithms respect all Definition 4 constraints and therefore emit
feasible arrangements; arrival order is drawn from the run's RNG (or given
explicitly for adversarial experiments).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.admissible import (
    DEFAULT_MAX_SETS_PER_USER,
    enumerate_admissible_batch,
    enumerate_bid_sets,
    split_sets,
)
from repro.core.analysis import lp_upper_bound
from repro.core.base import ArrangementAlgorithm
from repro.model.arrangement import Arrangement
from repro.model.index import BaseInstanceIndex
from repro.model.instance import IGEPAInstance


class _OnlineAlgorithm(ArrangementAlgorithm):
    """Shared arrival-loop machinery.

    Args:
        arrival_order: fixed user-id order, or None to shuffle per run.
    """

    def __init__(
        self,
        arrival_order: Sequence[int] | None = None,
        seed: int | None = None,
        max_sets_per_user: int = DEFAULT_MAX_SETS_PER_USER,
    ):
        super().__init__(seed=seed)
        self.arrival_order = list(arrival_order) if arrival_order is not None else None
        self.max_sets_per_user = max_sets_per_user

    def _arrivals(
        self, instance: IGEPAInstance, rng: np.random.Generator
    ) -> list[int]:
        if self.arrival_order is not None:
            unknown = set(self.arrival_order) - set(instance.user_by_id)
            if unknown:
                raise ValueError(f"arrival order contains unknown users {unknown}")
            return list(self.arrival_order)
        order = instance.store.user_ids.tolist()
        rng.shuffle(order)
        return order

    def _serve(
        self,
        instance: IGEPAInstance,
        arrangement: Arrangement,
        user_id: int,
        rng: np.random.Generator,
    ) -> None:
        raise NotImplementedError

    def _solve(
        self, instance: IGEPAInstance, rng: np.random.Generator
    ) -> tuple[Arrangement, dict]:
        arrangement = Arrangement(instance)
        order = self._arrivals(instance, rng)
        self.prepare(instance, order)
        for user_id in order:
            self._serve(instance, arrangement, user_id, rng)
        return arrangement, {"arrivals": len(order)}

    def prepare(self, instance: IGEPAInstance, user_ids: Sequence[int]) -> None:
        """Announce arrivals about to be served on ``instance``, in order
        (a full solve's whole arrival order, or a serving tick's batch), so
        a policy can do their per-user work in one batch.  A no-op here."""

    def serve(
        self,
        instance: IGEPAInstance,
        arrangement: Arrangement,
        user_id: int,
        rng: np.random.Generator | None = None,
    ) -> list[int]:
        """Serve one arrival against a live arrangement (incremental hook).

        The dynamic-platform simulator (:mod:`repro.experiments.simulate`)
        calls this as users arrive *between* churn batches: the user is
        assigned irrevocably against the capacities remaining right now,
        exactly as :meth:`_solve`'s arrival loop would treat them if they
        were next in its order.  The arrangement is mutated in place.

        Args:
            instance: the platform's current instance.
            arrangement: the live arrangement, mutated in place.
            user_id: the arriving user (must exist on ``instance``).
            rng: source for randomized serving policies; None draws a fresh
                generator from the constructor seed.

        Returns:
            The event ids newly assigned to the user, sorted (empty when
            nothing fit — a rejected arrival).

        Raises:
            ValueError: on unknown users or an arrangement bound to a
                different instance.
        """
        if user_id not in instance.user_by_id:
            raise ValueError(f"unknown user id {user_id}")
        if arrangement.instance is not instance:
            raise ValueError("arrangement belongs to a different instance")
        if rng is None:
            rng = self._rng(None)
        before = arrangement.events_of(user_id)
        self._serve(instance, arrangement, user_id, rng)
        return sorted(arrangement.events_of(user_id) - before)

    def forget_users(self, user_ids: Sequence[int]) -> None:
        """Drop any per-user serving state (cache hygiene hook).

        Called by churn application for removed users; the base algorithms
        keep no state, so this is a no-op unless a subclass memoizes.
        """


class OnlineGreedy(_OnlineAlgorithm):
    """Serve each arrival with their heaviest feasible admissible set.

    Feasibility is evaluated against the event capacities *remaining at
    arrival time*; the choice is irrevocable.

    The admissible-set enumeration — the exponential part of an arrival —
    is cached per user behind a content fingerprint of everything the
    enumeration reads: the user's capacity, their bid list, their bid
    events' positions and the conflict bitmasks restricted to those
    positions.  Any churn that changes the
    enumeration (re-bids, capacity shocks, conflict toggles among the
    user's events) changes the fingerprint and misses the cache, so no
    explicit invalidation wiring is needed for correctness;
    :meth:`forget_users` bounds memory when users depart.  Misses take
    their sets from the last :meth:`prepare` batch when it covers them (a
    full solve announces its whole arrival order, the serving tick its
    batch), so their enumeration runs as one batched walk.  Set
    ``cache_admissible=False`` to force the PR 5 brute-force path
    (``bench_extension_online`` measures the difference).
    """

    name = "online-greedy"

    def __init__(
        self,
        arrival_order: Sequence[int] | None = None,
        seed: int | None = None,
        max_sets_per_user: int = DEFAULT_MAX_SETS_PER_USER,
        cache_admissible: bool = True,
    ):
        super().__init__(
            arrival_order=arrival_order,
            seed=seed,
            max_sets_per_user=max_sets_per_user,
        )
        self.cache_admissible = cache_admissible
        self._set_cache: dict[int, tuple[object, tuple[tuple[int, ...], ...]]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        # A_u of the last prepared arrivals, enumerated in one batch and
        # taken in place of one-user enumerations; valid for that index only.
        self._batched: tuple[BaseInstanceIndex | None, dict] = (None, {})

    def forget_users(self, user_ids: Sequence[int]) -> None:
        for user_id in user_ids:
            self._set_cache.pop(user_id, None)

    def prepare(self, instance: IGEPAInstance, user_ids: Sequence[int]) -> None:
        """Enumerate the arrivals' ``A_u`` in one batch, in arrival order
        (so an explosion names the user a one-by-one walk would)."""
        index = instance.index
        upos = np.fromiter(
            map(index.user_pos.__getitem__, user_ids),
            dtype=np.int64,
            count=len(user_ids),
        )
        sets = enumerate_admissible_batch(index, upos, self.max_sets_per_user)
        self._batched = (index, dict(zip(user_ids, split_sets(sets, index))))

    def _enumerate(
        self,
        index: BaseInstanceIndex,
        user_id: int,
        bids: tuple[int, ...],
        capacity: int,
    ) -> tuple[tuple[int, ...], ...]:
        batched_index, batched = self._batched
        sets = batched.pop(user_id, None) if batched_index is index else None
        if sets is None:
            sets = enumerate_bid_sets(
                index, user_id, bids, capacity, self.max_sets_per_user
            )
        return tuple(sets)

    def _admissible_sets(
        self,
        index: BaseInstanceIndex,
        user_id: int,
        bids: tuple[int, ...],
        capacity: int,
    ) -> tuple[tuple[int, ...], ...]:
        """The user's admissible sets, memoized behind a content key."""
        if not self.cache_admissible:
            return self._enumerate(index, user_id, bids, capacity)
        event_pos = index.event_pos
        conflict_bits = index.conflict_bits
        positions = tuple(event_pos[event_id] for event_id in bids)
        bid_mask = 0
        for p in positions:
            bid_mask |= 1 << p
        fingerprint = (
            capacity,
            bids,
            positions,
            tuple(conflict_bits[p] & bid_mask for p in positions),
        )
        cached = self._set_cache.get(user_id)
        if cached is not None and cached[0] == fingerprint:
            self.cache_hits += 1
            return cached[1]
        self.cache_misses += 1
        sets = self._enumerate(index, user_id, bids, capacity)
        self._set_cache[user_id] = (fingerprint, sets)
        return sets

    def _serve(
        self,
        instance: IGEPAInstance,
        arrangement: Arrangement,
        user_id: int,
        rng: np.random.Generator,
    ) -> None:
        index = instance.index
        upos = index.user_pos[user_id]
        weight_of = index.user_weight_by_event_id(upos)
        event_pos = index.event_pos
        attendance = arrangement.attendance_counts
        event_capacity = index.event_capacity
        best_set: tuple[int, ...] | None = None
        best_weight = 0.0
        # The user's row read straight from the store, not through a view.
        bids = instance.store.user_bids(upos)
        capacity = int(index.user_capacity[upos])
        for events in self._admissible_sets(index, user_id, bids, capacity):
            if any(
                attendance[event_pos[event_id]] >= event_capacity[event_pos[event_id]]
                for event_id in events
            ):
                continue
            weight = sum(weight_of[event_id] for event_id in events)
            if weight > best_weight:
                best_weight = weight
                best_set = events
        if best_set is not None:
            for event_id in best_set:
                arrangement.add(event_id, user_id, check=True)


class OnlineRandom(_OnlineAlgorithm):
    """Serve each arrival by walking their bids in random order."""

    name = "online-random"

    def _serve(
        self,
        instance: IGEPAInstance,
        arrangement: Arrangement,
        user_id: int,
        rng: np.random.Generator,
    ) -> None:
        user = instance.user_by_id[user_id]
        capacity = user.capacity
        bids = list(user.bids)
        rng.shuffle(bids)
        for event_id in bids:
            if arrangement.load(user_id) >= capacity:
                break
            if arrangement.can_add(event_id, user_id):
                arrangement.add(event_id, user_id, check=False)


def serve_greedy_walk(
    instance: IGEPAInstance,
    arrangement: Arrangement,
    user_id: int,
) -> list[int]:
    """Degraded serving: one descending-weight bid-walk, no enumeration.

    Admission control's burst fallback — O(bids) feasibility probes instead
    of enumerating ``A_u``, deterministic (no RNG), all Definition 4
    constraints respected via ``can_add``.  The greedy walk can miss the
    heaviest admissible *set* (it commits bid by bid), which is exactly the
    quality the platform trades for answering under overload.

    Returns:
        The event ids newly assigned, sorted (empty when nothing fit).

    Raises:
        ValueError: on unknown users or an arrangement bound to a
            different instance.
    """
    if user_id not in instance.user_by_id:
        raise ValueError(f"unknown user id {user_id}")
    if arrangement.instance is not instance:
        raise ValueError("arrangement belongs to a different instance")
    user = instance.user_by_id[user_id]
    index = instance.index
    upos = index.user_pos[user_id]
    weight_of = index.user_weight_by_event_id(upos)
    # Heaviest bid first; event id breaks ties so the walk is deterministic.
    bids = sorted(user.bids, key=lambda event_id: (-weight_of[event_id], event_id))
    capacity = user.capacity
    added: list[int] = []
    for event_id in bids:
        if arrangement.load(user_id) >= capacity:
            break
        if arrangement.can_add(event_id, user_id):
            arrangement.add(event_id, user_id, check=False)
            added.append(event_id)
    return sorted(added)


#: Relative slack granted to ratios above 1.0 before they are treated as a
#: broken bound rather than LP solver tolerance (the solver stack certifies
#: primal feasibility to ~1e-7; see ``repro.solver``).
BOUND_RTOL = 1e-6


def competitive_ratio(
    instance: IGEPAInstance,
    algorithm: _OnlineAlgorithm,
    repetitions: int = 20,
    seed: int = 0,
    bound_rtol: float = BOUND_RTOL,
) -> dict:
    """Empirical online-vs-offline comparison over random arrival orders.

    The offline LP optimum is a true upper bound only up to the LP solver's
    tolerance, so a run's raw ratio can land slightly above 1.0.  Ratios
    within ``bound_rtol`` of 1.0 are clamped to 1.0 (the payload records the
    raw maximum and how many runs were clamped); an overshoot beyond the
    tolerance means the "bound" did not bound the algorithm and raises.

    Returns:
        ``{"mean_utility", "min_utility", "offline_bound", "mean_ratio",
        "worst_ratio", "ratios", "utilities", "max_raw_ratio",
        "clamped_runs", "zero_bound"}`` — ratios are against the offline LP
        bound, clamped to ``[0, 1]``; ``ratios`` is per run, aligned with
        ``utilities``.  When the bound is 0 and every run's utility is 0 the
        comparison is vacuous: ratios are 1.0 and ``zero_bound`` is True.

    Raises:
        RuntimeError: when the bound is exceeded beyond ``bound_rtol``, or
            when the bound is 0 while some run achieved positive utility —
            both mean the LP bound is not actually an upper bound (a solver
            or formulation bug), which ``1.0`` used to silently mask.
    """
    utilities = [
        algorithm.solve(instance, seed=seed + i).utility for i in range(repetitions)
    ]
    bound = lp_upper_bound(instance)
    mean = float(np.mean(utilities))
    worst = float(np.min(utilities))

    if bound <= 0.0:
        best = max(utilities, default=0.0)
        if bound < 0.0 or best > 0.0:
            # Utilities are nonnegative, so a negative "bound" cannot bound
            # anything; only bound == 0 with all-zero utilities is vacuous.
            raise RuntimeError(
                f"offline LP bound is {bound} but the online algorithm "
                f"achieved utility {best}: the bound is not an upper bound"
            )
        ratios = [1.0] * len(utilities)
        return {
            "mean_utility": mean,
            "min_utility": worst,
            "offline_bound": bound,
            "mean_ratio": 1.0,
            "worst_ratio": 1.0,
            "ratios": ratios,
            "utilities": utilities,
            "max_raw_ratio": 1.0,
            "clamped_runs": 0,
            "zero_bound": True,
        }

    raw_ratios = [utility / bound for utility in utilities]
    max_raw = max(raw_ratios, default=1.0)
    if max_raw > 1.0 + bound_rtol:
        raise RuntimeError(
            f"online utility exceeds the offline LP bound by more than the "
            f"solver tolerance (raw ratio {max_raw}, rtol {bound_rtol}): "
            "the bound is not an upper bound"
        )
    ratios = [min(ratio, 1.0) for ratio in raw_ratios]
    return {
        "mean_utility": mean,
        "min_utility": worst,
        "offline_bound": bound,
        "mean_ratio": float(np.mean(ratios)) if ratios else 1.0,
        "worst_ratio": float(np.min(ratios)) if ratios else 1.0,
        "ratios": ratios,
        "utilities": utilities,
        "max_raw_ratio": max_raw,
        "clamped_runs": sum(1 for ratio in raw_ratios if ratio > 1.0),
        "zero_bound": False,
    }
