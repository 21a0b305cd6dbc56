"""Synthetic IGEPA workloads (§IV "Synthetic Datasets", Table I).

The generator follows the paper's recipe exactly:

* capacities of events and users ~ uniform over ``{1, ..., max}``;
* every pair of events conflicts independently with probability ``p_cf``;
* every pair of users is befriended independently with probability ``p_deg``;
* interest values of users in (bid) events ~ uniform on [0, 1];
* **dependent bids**: "users tend to bid a group of similar and often
  conflicting events to ensure that they can eventually attend some (one or
  multiple) of the events.  So the bids of users are sampled dependently from
  several sets of conflicting events."  Each user picks a *conflict cluster*
  (an event plus events conflicting with it) and draws most bids inside it,
  topping up with uniform events.

Defaults are Table I: ``|V| = 200, |U| = 2000, max c_v = 50, max c_u = 4,
p_cf = 0.3, p_deg = 0.5``.

For large user counts the social network is not materialized; user degrees
are drawn from the exact ``Binomial(|U| - 1, p_deg)`` marginal instead (the
utility depends on degrees only, so nothing is lost).  Pass
``materialize_social_graph=True`` to build the explicit Erdős–Rényi graph.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace

import numpy as np

from repro.model.columnar import ColumnarInterest, ColumnarStore
from repro.model.conflicts import MatrixConflict
from repro.model.entities import Event, User
from repro.model.instance import IGEPAInstance
from repro.model.interest import TabulatedInterest
from repro.social.generators import empty_graph, erdos_renyi_graph


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic generator (defaults = Table I).

    Attributes:
        num_events: ``|V|``.
        num_users: ``|U|``.
        max_event_capacity: ``max c_v`` (capacities uniform in 1..max).
        max_user_capacity: ``max c_u`` (capacities uniform in 1..max).
        conflict_probability: ``p_cf``.
        friend_probability: ``p_deg``.
        beta: utility balance parameter.
        min_bids / max_bids: bid-list length range per user (uniform).
        cluster_bid_fraction: fraction of each user's bids drawn from their
            conflict cluster (the rest are uniform over all events).
        materialize_social_graph: build the explicit ER graph instead of
            sampling degrees from the Binomial marginal.
    """

    num_events: int = 200
    num_users: int = 2000
    max_event_capacity: int = 50
    max_user_capacity: int = 4
    conflict_probability: float = 0.3
    friend_probability: float = 0.5
    beta: float = 0.5
    min_bids: int = 2
    max_bids: int = 6
    cluster_bid_fraction: float = 0.8
    materialize_social_graph: bool = False

    def __post_init__(self) -> None:
        if self.num_events < 0 or self.num_users < 0:
            raise ValueError("num_events and num_users must be >= 0")
        if self.max_event_capacity < 1 or self.max_user_capacity < 1:
            raise ValueError("capacities must be >= 1")
        if not 0.0 <= self.conflict_probability <= 1.0:
            raise ValueError(f"p_cf must be in [0, 1], got {self.conflict_probability}")
        if not 0.0 <= self.friend_probability <= 1.0:
            raise ValueError(f"p_deg must be in [0, 1], got {self.friend_probability}")
        if not 1 <= self.min_bids <= self.max_bids:
            raise ValueError("need 1 <= min_bids <= max_bids")
        if not 0.0 <= self.cluster_bid_fraction <= 1.0:
            raise ValueError("cluster_bid_fraction must be in [0, 1]")

    def with_overrides(self, **kwargs) -> "SyntheticConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **kwargs)


TABLE1_DEFAULTS = SyntheticConfig()


def _conflict_clusters(
    event_ids: list[int], conflict: MatrixConflict, rng: np.random.Generator
) -> list[list[int]]:
    """Sets of mutually *often*-conflicting events for dependent bidding.

    Each cluster is a random seed event together with every event that
    conflicts with it.  Clusters therefore contain many conflicting pairs —
    exactly the bid shape the paper observed on real EBSNs.
    """
    clusters: list[list[int]] = []
    seeds = list(event_ids)
    rng.shuffle(seeds)
    for seed_id in seeds[: max(1, len(event_ids) // 10)]:
        members = [seed_id] + [
            other
            for other in event_ids
            if conflict.conflicts_ids(seed_id, other)
        ]
        clusters.append(members)
    return clusters


def generate_synthetic(
    config: SyntheticConfig | None = None,
    seed: int | None = None,
    **overrides,
) -> IGEPAInstance:
    """Generate a synthetic IGEPA instance.

    Args:
        config: generator configuration (Table I defaults when omitted).
        seed: RNG seed; identical seeds and configs give identical instances.
        **overrides: convenience field overrides applied to ``config``
            (e.g. ``generate_synthetic(seed=0, num_users=5000)``).
    """
    if config is None:
        config = TABLE1_DEFAULTS
    if overrides:
        config = config.with_overrides(**overrides)
    rng = np.random.default_rng(seed)

    event_ids = list(range(config.num_events))
    user_ids = list(range(config.num_users))

    events = [
        Event(
            event_id=event_id,
            capacity=int(rng.integers(1, config.max_event_capacity + 1)),
        )
        for event_id in event_ids
    ]
    conflict = MatrixConflict.sample(event_ids, config.conflict_probability, rng)
    clusters = (
        _conflict_clusters(event_ids, conflict, rng) if event_ids else []
    )

    users: list[User] = []
    interest_values: dict[tuple[int, int], float] = {}
    for user_id in user_ids:
        capacity = int(rng.integers(1, config.max_user_capacity + 1))
        bids: tuple[int, ...] = ()
        if event_ids:
            wanted = int(rng.integers(config.min_bids, config.max_bids + 1))
            wanted = min(wanted, len(event_ids))
            from_cluster = int(round(wanted * config.cluster_bid_fraction))
            chosen: set[int] = set()
            if clusters and from_cluster:
                cluster = clusters[int(rng.integers(len(clusters)))]
                # The seed (cluster[0]) conflicts with every other member, so
                # including it guarantees the bid list is "a group of ...
                # often conflicting events" as the paper describes.
                chosen.add(cluster[0])
                rest = cluster[1:]
                take = min(from_cluster - 1, len(rest))
                if take > 0:
                    chosen.update(
                        int(e) for e in rng.choice(rest, size=take, replace=False)
                    )
            while len(chosen) < wanted:
                chosen.add(int(rng.integers(len(event_ids))))
            bids = tuple(sorted(chosen))
        users.append(User(user_id=user_id, capacity=capacity, bids=bids))
        for event_id in bids:
            interest_values[(event_id, user_id)] = float(rng.uniform())

    if config.materialize_social_graph:
        social = erdos_renyi_graph(user_ids, config.friend_probability, rng=rng)
        degrees = None
    else:
        social = empty_graph(user_ids)
        n = config.num_users
        if n > 1:
            raw = rng.binomial(n - 1, config.friend_probability, size=n)
            degrees = {
                user_id: float(raw[i]) / (n - 1) for i, user_id in enumerate(user_ids)
            }
        else:
            degrees = {user_id: 0.0 for user_id in user_ids}

    return IGEPAInstance(
        events=events,
        users=users,
        conflict=conflict,
        interest=TabulatedInterest(interest_values),
        social=social,
        beta=config.beta,
        name=f"synthetic(|V|={config.num_events},|U|={config.num_users},"
        f"pcf={config.conflict_probability},pdeg={config.friend_probability})",
        degrees=degrees,
    )


def _stream_user_chunk(
    config: SyntheticConfig,
    rng: np.random.Generator,
    k: int,
    num_events: int,
    clusters: list[list[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One vectorized chunk of dependent-bid users (see stream generator).

    All randomness is drawn in bulk arrays up front — capacities, bid
    budgets, cluster assignment, per-cluster member permutations and the
    uniform top-up pool — so the per-user assembly loop does only index
    arithmetic, never an RNG call.

    Returns arrays, not entities: per-user capacities and bid counts, the
    flat bid lists (event ids, ascending per user) and the SI value per bid
    entry.  Both stream modes — arrays-native and entity — consume these,
    so they draw the identical RNG sequence and produce content-identical
    instances for the same seed.
    """
    capacities = rng.integers(1, config.max_user_capacity + 1, size=k)
    wanted = np.minimum(
        rng.integers(config.min_bids, config.max_bids + 1, size=k), num_events
    )
    from_cluster = np.rint(wanted * config.cluster_bid_fraction).astype(np.int64)
    cluster_of = (
        rng.integers(len(clusters), size=k)
        if clusters
        else np.full(k, -1, dtype=np.int64)
    )
    # Per cluster: one (group x |rest|) random matrix, argsorted row-wise —
    # each user's row is a uniform permutation of the cluster's non-seed
    # members, exactly one bulk draw per cluster per chunk.
    member_picks: dict[int, np.ndarray] = {}
    group_offset: dict[int, int] = {}
    for cluster_id in np.unique(cluster_of[cluster_of >= 0]).tolist():
        rest = len(clusters[cluster_id]) - 1
        group = int((cluster_of == cluster_id).sum())
        if rest > 0:
            member_picks[cluster_id] = np.argsort(
                rng.random((group, rest)), axis=1
            )
        group_offset[cluster_id] = 0
    # Uniform top-up pool: oversample, dedupe per user in the assembly loop.
    pool_width = int(config.max_bids * 2 + 4)
    top_up = rng.integers(num_events, size=(k, pool_width)) if num_events else None

    counts = np.zeros(k, dtype=np.int64)
    flat_bids: list[int] = []
    for i in range(k):
        chosen: set[int] = set()
        target = int(wanted[i])
        cluster_id = int(cluster_of[i])
        budget = int(from_cluster[i])
        if cluster_id >= 0 and budget > 0:
            cluster = clusters[cluster_id]
            chosen.add(cluster[0])
            picks = member_picks.get(cluster_id)
            if picks is not None:
                row = group_offset[cluster_id]
                group_offset[cluster_id] = row + 1
                for position in picks[row, : budget - 1]:
                    chosen.add(cluster[1 + int(position)])
        column = 0
        while len(chosen) < target and column < pool_width:
            chosen.add(int(top_up[i, column]))
            column += 1
        while len(chosen) < target:
            # Pool exhausted by collisions (vanishing probability except at
            # tiny event counts): finish with direct draws so the min_bids
            # floor always holds, like the per-user generator.
            chosen.add(int(rng.integers(num_events)))
        counts[i] = len(chosen)
        flat_bids.extend(sorted(chosen))

    flat = np.asarray(flat_bids, dtype=np.int64)
    si = rng.random(flat.size)
    return capacities.astype(np.int64, copy=False), counts, flat, si


def generate_synthetic_stream(
    config: SyntheticConfig | None = None,
    seed: int | None = None,
    *,
    chunk_size: int = 8192,
    spill_budget_bytes: int | None = None,
    spill_dir: str | None = None,
    **overrides,
) -> IGEPAInstance:
    """Generate a large synthetic instance by streaming vectorized user chunks.

    Same workload shape as :func:`generate_synthetic` (Table I capacities,
    p_cf conflicts, dependent cluster bids, Binomial-marginal degrees) but
    built for the ≥500k-user regime:

    * users are generated ``chunk_size`` at a time with bulk RNG draws —
      no per-user ``Generator`` calls, so a 50k-user instance builds in a
      fraction of the per-user generator's time;
    * the chunks flow straight into a
      :class:`~repro.model.columnar.ColumnarStore` — no ``User`` object, no
      per-bid tuple and no interest dict is ever materialized, so peak
      memory is a handful of flat arrays plus O(|V|² + chunk);
    * degrees always come from the exact Binomial marginal (the explicit
      Erdős–Rényi graph at 500k users would hold ~6·10¹⁰ edges).

    ``spill_budget_bytes`` caps the store's resident
    array bytes: beyond it, the large per-user/per-bid columns are rewritten
    as memory-mapped ``.npy`` files under ``spill_dir`` (a fresh temporary
    directory when omitted).

    The draw order differs from :func:`generate_synthetic`, so the two
    produce different (equally distributed) instances for the same seed.
    Returns an instance whose lazy index resolves to the sharded
    implementation whenever the size heuristic calls for it.
    """
    if config is None:
        config = TABLE1_DEFAULTS
    if overrides:
        config = config.with_overrides(**overrides)
    if config.materialize_social_graph:
        raise ValueError(
            "generate_synthetic_stream never materializes the social graph; "
            "use generate_synthetic for explicit-graph workloads"
        )
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    rng = np.random.default_rng(seed)

    event_ids = list(range(config.num_events))
    events = [
        Event(
            event_id=event_id,
            capacity=int(rng.integers(1, config.max_event_capacity + 1)),
        )
        for event_id in event_ids
    ]
    conflict = MatrixConflict.sample(event_ids, config.conflict_probability, rng)
    clusters = _conflict_clusters(event_ids, conflict, rng) if event_ids else []

    cap_chunks: list[np.ndarray] = []
    count_chunks: list[np.ndarray] = []
    bid_chunks: list[np.ndarray] = []
    si_chunks: list[np.ndarray] = []
    for start in range(0, config.num_users, chunk_size):
        k = min(chunk_size, config.num_users - start)
        if config.num_events:
            caps, counts, flat, si = _stream_user_chunk(
                config, rng, k, config.num_events, clusters
            )
        else:
            caps = rng.integers(1, config.max_user_capacity + 1, size=k)
            counts = np.zeros(k, dtype=np.int64)
            flat = np.empty(0, dtype=np.int64)
            si = np.empty(0, dtype=np.float64)
        cap_chunks.append(caps)
        count_chunks.append(counts)
        bid_chunks.append(flat)
        si_chunks.append(si)

    num_users = config.num_users
    user_capacity = _concat(cap_chunks, np.int64)
    bid_counts = _concat(count_chunks, np.int64)
    bid_event_pos = _concat(bid_chunks, np.int64)
    bid_si = _concat(si_chunks, np.float64)
    bid_indptr = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(bid_counts, out=bid_indptr[1:])

    if num_users > 1:
        raw = rng.binomial(num_users - 1, config.friend_probability, size=num_users)
        degree_vector = raw.astype(np.float64) / (num_users - 1)
    else:
        degree_vector = np.zeros(num_users, dtype=np.float64)

    name = (
        f"synthetic-stream(|V|={config.num_events},|U|={config.num_users},"
        f"pcf={config.conflict_probability},pdeg={config.friend_probability})"
    )

    store = ColumnarStore(
        user_ids=np.arange(num_users, dtype=np.int64),
        user_capacity=user_capacity,
        event_ids=np.arange(config.num_events, dtype=np.int64),
        event_capacity=np.fromiter(
            (e.capacity for e in events), dtype=np.int64, count=len(events)
        ),
        bid_indptr=bid_indptr,
        bid_event_pos=bid_event_pos,
        bid_si=bid_si,
        degrees=degree_vector,
        conflict_matrix=conflict.matrix(events),
    )
    if spill_budget_bytes is not None:
        directory = spill_dir or tempfile.mkdtemp(prefix="igepa-spill-")
        store.maybe_spill(spill_budget_bytes, directory)
    return IGEPAInstance.from_store(
        store,
        conflict=conflict,
        interest=ColumnarInterest(store),
        social=empty_graph(store.user_ids.tolist()),
        beta=config.beta,
        name=name,
    )


def _concat(chunks: list[np.ndarray], dtype) -> np.ndarray:
    if not chunks:
        return np.empty(0, dtype=dtype)
    return np.concatenate(chunks).astype(dtype, copy=False)
