"""Churn trace generation: sustained-traffic workloads over IGEPA instances.

The dynamic EBSN setting (Social Event Scheduling / Attendance Maximization,
Bikakis et al. 2018) sees users register, cancel and re-bid continuously
while events open and close.  :func:`generate_churn_trace` turns a synthetic
instance into that workload: a sequence of :class:`~repro.model.delta.Delta`
batches whose per-batch operation counts are Poisson-distributed around
rates chosen relative to the Table I defaults —

* **user arrivals** — new users with Table-I capacities and bid-list
  lengths, bidding with the generator's conflict-cluster flavour (a seed
  event plus events conflicting with it, topped up uniformly) and uniform
  interest values;
* **user departures** — uniform over the current population;
* **re-bids** — a user withdraws one bid and places another;
* **event opens/closes** — fresh events conflict with existing ones at
  ``p_cf``; closures are uniform;
* **conflict toggles** — a uniform event pair flips its σ value;
* **interest drift** — an existing bid pair's SI value is re-sampled
  (``drift_rate``): organizers re-describe events, tastes move;
* **capacity shocks** — a surviving event (or user) re-samples its capacity
  (``capacity_shock_rate`` / ``user_capacity_shock_rate``): venues change,
  organizers re-plan.

An **adversarial burst mode** stresses the repair path: every
``burst_every``-th batch multiplies arrivals, closes a fraction of all open
events at once (mass cancellation) and — when
``burst_capacity_shrink_fraction`` is set — halves the capacity of a
fraction of the surviving events, producing the largest possible
carried-arrangement damage per batch (shrink sheds assigned pairs).

The generator tracks a lightweight mirror of the evolving instance (alive
ids, bid lists, conflict pairs), so building a trace never constructs
intermediate :class:`IGEPAInstance` objects — replay applies the deltas.

Traces require the synthetic generator's instance shape: a
:class:`TabulatedInterest` (new bids need explicit interest values) and a
:class:`MatrixConflict` (conflict toggles edit the relation).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.datagen.synthetic import TABLE1_DEFAULTS, SyntheticConfig
from repro.model.conflicts import MatrixConflict
from repro.model.delta import Delta
from repro.model.entities import Event, User
from repro.model.instance import IGEPAInstance
from repro.model.interest import TabulatedInterest


@dataclass(frozen=True)
class ChurnConfig:
    """Knobs of the churn trace generator.

    Rates are Poisson means per batch.  Defaults churn roughly 1% of a
    Table-I population per batch.

    Attributes:
        num_batches: number of deltas in the trace.
        user_arrival_rate: mean new users per batch.
        user_departure_rate: mean departing users per batch.
        rebid_rate: mean users replacing one bid per batch.
        event_open_rate: mean events opening per batch.
        event_close_rate: mean events closing per batch.
        conflict_toggle_rate: mean σ flips per batch.
        drift_rate: mean existing bid pairs whose SI value re-samples per
            batch (interest drift; 0 disables).
        capacity_shock_rate: mean surviving events re-sampling their
            capacity per batch (0 disables).
        user_capacity_shock_rate: mean surviving users re-sampling their
            capacity per batch (0 disables).
        burst_every: every k-th batch is an adversarial burst (0: never).
        burst_user_multiplier: arrival-rate multiplier during a burst.
        burst_event_close_fraction: fraction of open events a burst closes.
        burst_capacity_shrink_fraction: fraction of surviving events a burst
            halves the capacity of (adversarial shrink; 0 disables).
        base: sampling knobs for new entities (capacities, bid-list lengths,
            ``p_cf``, ``p_deg``) — defaults to Table I.
    """

    num_batches: int = 20
    user_arrival_rate: float = 20.0
    user_departure_rate: float = 20.0
    rebid_rate: float = 40.0
    event_open_rate: float = 1.0
    event_close_rate: float = 1.0
    conflict_toggle_rate: float = 2.0
    drift_rate: float = 0.0
    capacity_shock_rate: float = 0.0
    user_capacity_shock_rate: float = 0.0
    burst_every: int = 0
    burst_user_multiplier: float = 10.0
    burst_event_close_fraction: float = 0.2
    burst_capacity_shrink_fraction: float = 0.0
    base: SyntheticConfig = TABLE1_DEFAULTS

    def __post_init__(self) -> None:
        if self.num_batches < 0:
            raise ValueError("num_batches must be >= 0")
        for name in (
            "user_arrival_rate",
            "user_departure_rate",
            "rebid_rate",
            "event_open_rate",
            "event_close_rate",
            "conflict_toggle_rate",
            "drift_rate",
            "capacity_shock_rate",
            "user_capacity_shock_rate",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.burst_every < 0:
            raise ValueError("burst_every must be >= 0")
        if not 0.0 <= self.burst_event_close_fraction <= 1.0:
            raise ValueError("burst_event_close_fraction must be in [0, 1]")
        if not 0.0 <= self.burst_capacity_shrink_fraction <= 1.0:
            raise ValueError("burst_capacity_shrink_fraction must be in [0, 1]")

    def with_overrides(self, **kwargs) -> "ChurnConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass
class ChurnTrace:
    """A churn workload: the initial instance plus delta batches to replay.

    Attributes:
        initial: the instance at time zero.
        deltas: one :class:`Delta` per batch, in replay order.
        config: the generator configuration.
        seed: the generator seed (traces are reproducible).
    """

    initial: IGEPAInstance
    deltas: list[Delta] = field(default_factory=list)
    config: ChurnConfig = ChurnConfig()
    seed: int | None = None

    def summary(self) -> dict:
        """Aggregate operation counts across the whole trace."""
        totals: dict[str, int] = {}
        for delta in self.deltas:
            for key, value in delta.summary().items():
                totals[key] = totals.get(key, 0) + value
        totals["batches"] = len(self.deltas)
        return totals


class _MirrorState:
    """Alive ids, bid lists, capacities and conflict pairs tracked outside
    the model."""

    def __init__(self, instance: IGEPAInstance):
        store = instance.store
        user_ids = store.user_ids.tolist()
        self.bids: dict[int, list[int]] = dict(zip(user_ids, store.bid_lists()))
        self.events: list[int] = store.event_ids.tolist()
        self.event_capacity: dict[int, int] = dict(
            zip(self.events, store.event_capacity.tolist())
        )
        self.user_capacity: dict[int, int] = dict(
            zip(user_ids, store.user_capacity.tolist())
        )
        conflict = instance.conflict
        if not isinstance(conflict, MatrixConflict):
            raise TypeError(
                "churn traces require a MatrixConflict instance, got "
                f"{type(conflict).__name__}"
            )
        if not isinstance(instance.interest, TabulatedInterest):
            raise TypeError(
                "churn traces require a TabulatedInterest instance, got "
                f"{type(instance.interest).__name__}"
            )
        self.conflicts: set[frozenset[int]] = {
            frozenset(pair) for pair in conflict.pairs()
        }
        self.next_user_id = max(self.bids, default=-1) + 1
        self.next_event_id = max(self.events, default=-1) + 1
        self.uses_degree_overrides = instance.has_degree_overrides

    def user_ids(self) -> list[int]:
        return list(self.bids)


def _sample_bids(
    events_pool: list[int],
    conflicts: set[frozenset[int]],
    config: SyntheticConfig,
    rng: np.random.Generator,
) -> list[int]:
    """A Table-I-shaped bid list: mostly one conflict cluster, topped up."""
    if not events_pool:
        return []
    wanted = int(rng.integers(config.min_bids, config.max_bids + 1))
    wanted = min(wanted, len(events_pool))
    chosen: list[int] = []
    seen: set[int] = set()
    from_cluster = int(round(wanted * config.cluster_bid_fraction))
    if from_cluster:
        seed_event = int(events_pool[int(rng.integers(len(events_pool)))])
        cluster = [
            e
            for e in events_pool
            if e != seed_event and frozenset((seed_event, e)) in conflicts
        ]
        chosen.append(seed_event)
        seen.add(seed_event)
        take = min(from_cluster - 1, len(cluster))
        if take > 0:
            for event_id in rng.choice(cluster, size=take, replace=False):
                chosen.append(int(event_id))
                seen.add(int(event_id))
    while len(chosen) < wanted:
        candidate = int(events_pool[int(rng.integers(len(events_pool)))])
        if candidate not in seen:
            chosen.append(candidate)
            seen.add(candidate)
    return sorted(chosen)


def _generate_batch(
    state: _MirrorState,
    config: ChurnConfig,
    rng: np.random.Generator,
    burst: bool,
) -> Delta:
    base = config.base
    arrival_rate = config.user_arrival_rate
    close_count = int(rng.poisson(config.event_close_rate))
    if burst:
        arrival_rate *= config.burst_user_multiplier
        close_count = max(
            close_count,
            int(round(len(state.events) * config.burst_event_close_fraction)),
        )

    # --- event closures (keep at least one event open) ---
    close_count = min(close_count, max(0, len(state.events) - 1))
    closed: list[int] = []
    if close_count:
        closed = sorted(
            int(e)
            for e in rng.choice(state.events, size=close_count, replace=False)
        )
    closed_set = set(closed)
    surviving_events = [e for e in state.events if e not in closed_set]

    # --- event openings ---
    open_count = int(rng.poisson(config.event_open_rate))
    opened: list[Event] = []
    add_conflicts: list[tuple[int, int]] = []
    new_event_ids: list[int] = []
    for _ in range(open_count):
        event_id = state.next_event_id
        state.next_event_id += 1
        opened.append(
            Event(
                event_id=event_id,
                capacity=int(rng.integers(1, base.max_event_capacity + 1)),
            )
        )
        for other in (*surviving_events, *new_event_ids):
            if rng.random() < base.conflict_probability:
                add_conflicts.append((int(other), event_id))
        new_event_ids.append(event_id)
    events_pool = surviving_events + new_event_ids

    # --- conflict pool the bid sampler sees this batch ---
    pending_conflicts = {frozenset(pair) for pair in add_conflicts}
    batch_conflicts = {
        pair
        for pair in state.conflicts
        if not (pair & closed_set)
    } | pending_conflicts

    # --- user departures (keep at least one user) ---
    alive_users = state.user_ids()
    departure_count = min(
        int(rng.poisson(config.user_departure_rate)), max(0, len(alive_users) - 1)
    )
    departed: list[int] = []
    if departure_count:
        departed = sorted(
            int(u)
            for u in rng.choice(alive_users, size=departure_count, replace=False)
        )
    departed_set = set(departed)

    # --- user arrivals ---
    arrival_count = int(rng.poisson(arrival_rate))
    arrivals: list[User] = []
    interest: list[tuple[int, int, float]] = []
    degrees: list[tuple[int, float]] = []
    population = len(alive_users) - len(departed) + arrival_count
    for _ in range(arrival_count):
        user_id = state.next_user_id
        state.next_user_id += 1
        # Sample against the post-batch conflict relation.
        bids = _sample_bids(events_pool, batch_conflicts, base, rng)
        arrivals.append(
            User(
                user_id=user_id,
                capacity=int(rng.integers(1, base.max_user_capacity + 1)),
                bids=tuple(bids),
            )
        )
        for event_id in bids:
            interest.append((event_id, user_id, float(rng.uniform())))
        if state.uses_degree_overrides and population > 1:
            raw = int(rng.binomial(population - 1, base.friend_probability))
            degrees.append((user_id, raw / (population - 1)))

    # --- re-bids: survivors drop one bid, place another ---
    rebid_pool = [u for u in alive_users if u not in departed_set]
    rebid_count = min(int(rng.poisson(config.rebid_rate)), len(rebid_pool))
    remove_bids: list[tuple[int, int]] = []
    add_bids: list[tuple[int, int]] = []
    rebidders: list[int] = []
    if rebid_count:
        rebidders = [
            int(u)
            for u in rng.choice(rebid_pool, size=rebid_count, replace=False)
        ]
    for user_id in rebidders:
        bids = state.bids[user_id]
        if not bids:
            continue
        dropped = int(bids[int(rng.integers(len(bids)))])
        remove_bids.append((user_id, dropped))
        bid_set = set(bids)
        candidates = [
            e for e in events_pool if e != dropped and e not in bid_set
        ]
        if candidates:
            added = int(candidates[int(rng.integers(len(candidates)))])
            add_bids.append((user_id, added))
            interest.append((added, user_id, float(rng.uniform())))

    # --- interest drift: existing bid pairs re-sample their SI value ---
    # (all draws below are gated on their knobs, so traces generated with
    # the pre-drift defaults replay the exact same RNG stream)
    removed_bid_set = set(remove_bids)
    drift_count = int(rng.poisson(config.drift_rate)) if config.drift_rate else 0
    drifted: set[tuple[int, int]] = set()
    for _ in range(drift_count):
        if not rebid_pool:
            break
        user_id = int(rebid_pool[int(rng.integers(len(rebid_pool)))])
        alive_bids = [
            e
            for e in state.bids[user_id]
            if e not in closed_set and (user_id, e) not in removed_bid_set
        ]
        if not alive_bids:
            continue
        event_id = int(alive_bids[int(rng.integers(len(alive_bids)))])
        if (event_id, user_id) in drifted:
            continue
        drifted.add((event_id, user_id))
        interest.append((event_id, user_id, float(rng.uniform())))

    # --- capacity shocks: surviving events/users re-sample capacities;
    # bursts additionally halve a fraction of the event capacities ---
    set_event_capacity: list[tuple[int, int]] = []
    shocked_events: set[int] = set()
    shock_count = (
        min(int(rng.poisson(config.capacity_shock_rate)), len(surviving_events))
        if config.capacity_shock_rate
        else 0
    )
    if shock_count:
        for event_id in rng.choice(
            surviving_events, size=shock_count, replace=False
        ):
            event_id = int(event_id)
            new_capacity = int(rng.integers(1, base.max_event_capacity + 1))
            if new_capacity != state.event_capacity[event_id]:
                set_event_capacity.append((event_id, new_capacity))
                shocked_events.add(event_id)
    if burst and config.burst_capacity_shrink_fraction and surviving_events:
        shrink_count = min(
            int(round(len(surviving_events) * config.burst_capacity_shrink_fraction)),
            len(surviving_events),
        )
        if shrink_count:
            for event_id in rng.choice(
                surviving_events, size=shrink_count, replace=False
            ):
                event_id = int(event_id)
                if event_id in shocked_events:
                    continue
                new_capacity = state.event_capacity[event_id] // 2
                if new_capacity != state.event_capacity[event_id]:
                    set_event_capacity.append((event_id, new_capacity))
                    shocked_events.add(event_id)
    set_user_capacity: list[tuple[int, int]] = []
    user_shock_count = (
        min(int(rng.poisson(config.user_capacity_shock_rate)), len(rebid_pool))
        if config.user_capacity_shock_rate
        else 0
    )
    if user_shock_count:
        for user_id in rng.choice(rebid_pool, size=user_shock_count, replace=False):
            user_id = int(user_id)
            new_capacity = int(rng.integers(1, base.max_user_capacity + 1))
            if new_capacity != state.user_capacity[user_id]:
                set_user_capacity.append((user_id, new_capacity))

    # --- conflict toggles over the post-batch event set ---
    toggle_count = int(rng.poisson(config.conflict_toggle_rate))
    add_toggle: list[tuple[int, int]] = []
    remove_toggle: list[tuple[int, int]] = []
    toggled: set[frozenset[int]] = set()
    if len(events_pool) >= 2:
        for _ in range(toggle_count):
            first, second = (
                int(e) for e in rng.choice(events_pool, size=2, replace=False)
            )
            pair = frozenset((first, second))
            if pair in toggled:
                continue
            toggled.add(pair)
            if pair in batch_conflicts:
                # Toggling a pair added earlier this batch would make the
                # delta remove a not-yet-existing conflict; skip those.
                if pair in pending_conflicts:
                    continue
                remove_toggle.append((first, second))
            else:
                add_toggle.append((first, second))

    delta = Delta(
        add_users=tuple(arrivals),
        remove_users=tuple(departed),
        add_events=tuple(opened),
        remove_events=tuple(closed),
        add_bids=tuple(add_bids),
        remove_bids=tuple(remove_bids),
        add_conflicts=tuple(add_conflicts + add_toggle),
        remove_conflicts=tuple(remove_toggle),
        set_user_capacity=tuple(set_user_capacity),
        set_event_capacity=tuple(set_event_capacity),
        interest=tuple(interest),
        degrees=tuple(degrees) if state.uses_degree_overrides else (),
    )

    # --- advance the mirror ---
    for user_id in departed:
        del state.bids[user_id]
        del state.user_capacity[user_id]
    for event_id in closed:
        del state.event_capacity[event_id]
    for user in arrivals:
        state.user_capacity[user.user_id] = user.capacity
    for event in opened:
        state.event_capacity[event.event_id] = event.capacity
    for user_id, capacity in set_user_capacity:
        state.user_capacity[user_id] = capacity
    for event_id, capacity in set_event_capacity:
        state.event_capacity[event_id] = capacity
    for user_id, event_id in remove_bids:
        state.bids[user_id].remove(event_id)
    for bids in state.bids.values():
        bids[:] = [e for e in bids if e not in closed_set]
    for user_id, event_id in add_bids:
        state.bids[user_id].append(event_id)
    for user in arrivals:
        state.bids[user.user_id] = list(user.bids)
    state.events = events_pool
    state.conflicts = batch_conflicts
    for first, second in remove_toggle:
        state.conflicts.discard(frozenset((first, second)))
    for first, second in add_toggle:
        state.conflicts.add(frozenset((first, second)))
    return delta


@dataclass
class RequestTrace:
    """A serving workload: the initial instance plus timestamped requests.

    The request-level view of a :class:`ChurnTrace` — each batch's new
    users become individual :class:`~repro.service.requests.ArrivalRequest`
    objects spread over the batch's time window, and everything else the
    batch did becomes one :class:`~repro.service.requests.ChurnRequest` at
    the window's start.  Replaying the requests through the service's
    micro-batcher reconstitutes ticks from timestamps alone.

    Attributes:
        initial: the instance at time zero.
        requests: arrival/churn requests in timestamp order.
        config: the originating churn configuration.
        seed: the request-level seed (inter-arrival jitter).
    """

    initial: IGEPAInstance
    requests: list = field(default_factory=list)
    config: ChurnConfig = ChurnConfig()
    seed: int | None = None

    def summary(self) -> dict:
        from repro.service.requests import ArrivalRequest

        arrivals = sum(
            1 for request in self.requests if isinstance(request, ArrivalRequest)
        )
        return {
            "requests": len(self.requests),
            "arrivals": arrivals,
            "churn_requests": len(self.requests) - arrivals,
            "horizon_seconds": (
                self.requests[-1].timestamp if self.requests else 0.0
            ),
        }


def generate_request_trace(
    trace: ChurnTrace,
    *,
    batch_seconds: float = 1.0,
    seed: int | None = None,
) -> RequestTrace:
    """Explode a churn trace into a timestamped request stream.

    Batch ``b`` owns the decision-time window ``[b·batch_seconds,
    (b+1)·batch_seconds)``.  Its non-arrival operations land as one
    :class:`~repro.service.requests.ChurnRequest` at the window start; each
    new user becomes an :class:`~repro.service.requests.ArrivalRequest`
    carrying exactly their interest (and degree-override) entries, placed
    inside the window with exponential inter-arrival gaps (the order-
    statistics construction, so arrivals never leak past their window and
    replay order equals timestamp order).  Burst batches compress the gaps
    by the configured ``burst_user_multiplier`` — the whole clump lands in
    the first sliver of the window, which is what stresses micro-batch
    sizing and admission control.

    Determinism: same trace, ``seed`` and ``batch_seconds`` give the same
    request stream; replaying it through a virtual clock gives the same
    ticks.
    """
    from repro.service.requests import ArrivalRequest, ChurnRequest

    if batch_seconds <= 0.0:
        raise ValueError(f"batch_seconds must be > 0, got {batch_seconds}")
    rng = np.random.default_rng(seed)
    config = trace.config
    requests: list = []
    for batch, delta in enumerate(trace.deltas):
        start = batch * batch_seconds
        burst = (
            config.burst_every > 0 and (batch + 1) % config.burst_every == 0
        )
        arrival_ids = {user.user_id for user in delta.add_users}
        arrival_interest: dict[int, list[tuple[int, int, float]]] = {
            user_id: [] for user_id in arrival_ids
        }
        remainder_interest: list[tuple[int, int, float]] = []
        for entry in delta.interest:
            if entry[1] in arrival_ids:
                arrival_interest[entry[1]].append(entry)
            else:
                remainder_interest.append(entry)
        arrival_degrees: dict[int, list[tuple[int, float]]] = {
            user_id: [] for user_id in arrival_ids
        }
        remainder_degrees: list[tuple[int, float]] = []
        for entry in delta.degrees:
            if entry[0] in arrival_ids:
                arrival_degrees[entry[0]].append(entry)
            else:
                remainder_degrees.append(entry)
        remainder = replace(
            delta,
            add_users=(),
            interest=tuple(remainder_interest),
            degrees=tuple(remainder_degrees),
        )
        requests.append(ChurnRequest(timestamp=start, delta=remainder))
        count = len(delta.add_users)
        if not count:
            continue
        # Order-statistics placement: n+1 exponential gaps normalized to
        # the window put n arrivals inside it with exponential spacing.
        gaps = rng.exponential(size=count + 1)
        offsets = np.cumsum(gaps[:count]) / float(np.sum(gaps))
        compression = config.burst_user_multiplier if burst else 1.0
        compression = max(compression, 1.0)
        for user, offset in zip(delta.add_users, offsets):
            requests.append(
                ArrivalRequest(
                    timestamp=start + batch_seconds * float(offset) / compression,
                    user=user,
                    interest=tuple(arrival_interest[user.user_id]),
                    degrees=tuple(arrival_degrees[user.user_id]),
                )
            )
    requests.sort(key=lambda request: request.timestamp)
    return RequestTrace(
        initial=trace.initial, requests=requests, config=config, seed=seed
    )


def generate_churn_trace(
    instance: IGEPAInstance,
    config: ChurnConfig | None = None,
    seed: int | None = None,
    **overrides,
) -> ChurnTrace:
    """Generate a reproducible churn trace over ``instance``.

    Args:
        instance: the time-zero instance (synthetic generator shape:
            tabulated interest, matrix conflicts).
        config: churn knobs (defaults; see :class:`ChurnConfig`).
        seed: RNG seed; identical seeds and configs give identical traces.
        **overrides: convenience field overrides applied to ``config``.

    Raises:
        TypeError: when the instance's interest/conflict functions cannot
            absorb churn (non-tabulated interest, non-matrix conflicts).
    """
    if config is None:
        config = ChurnConfig()
    if overrides:
        config = config.with_overrides(**overrides)
    rng = np.random.default_rng(seed)
    state = _MirrorState(instance)
    deltas: list[Delta] = []
    for batch in range(config.num_batches):
        burst = config.burst_every > 0 and (batch + 1) % config.burst_every == 0
        deltas.append(_generate_batch(state, config, rng, burst))
    return ChurnTrace(initial=instance, deltas=deltas, config=config, seed=seed)
