"""Property tests for the dynamic delta kinds (capacity changes, drift).

The guarantees, enforced on *both* index implementations, and on the CSR
index for platforms of 1, 7 and 160 users:

* a delta-patched index is bit-identical to a from-scratch rebuild for
  capacity/drift deltas (alone and mixed with structural churn);
* a carried arrangement is feasible after any capacity shrink, and repair
  never leaves a shrink violation standing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import GGGreedy
from repro.core.local_search import LocalSearch
from repro.core.repair import repair
from repro.datagen import (
    ChurnConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
)
from repro.experiments.replay import replay_trace
from repro.model.delta import (
    Delta,
    apply_delta,
    fresh_index_like,
    index_parity_mismatches,
)

CONFIG = SyntheticConfig(num_users=160, num_events=30)
#: (index kind, platform |U|); None and "all" -> CONFIG's 160 users.
INDEX_CONFIGS = [
    ("dense", None),
    ("sharded", 1),
    ("sharded", 7),
    ("sharded", "all"),
]
DYNAMIC_CHURN = ChurnConfig(
    num_batches=6,
    user_arrival_rate=8.0,
    user_departure_rate=8.0,
    rebid_rate=16.0,
    event_open_rate=1.0,
    event_close_rate=1.0,
    conflict_toggle_rate=1.0,
    drift_rate=12.0,
    capacity_shock_rate=3.0,
    user_capacity_shock_rate=2.0,
    burst_every=3,
    burst_capacity_shrink_fraction=0.3,
)


def _instance(seed: int, kind: str, num_users):
    config = CONFIG
    if num_users not in (None, "all"):
        config = CONFIG.with_overrides(num_users=num_users)
    instance = generate_synthetic(config, seed=seed)
    instance.configure_index(sharded=kind == "sharded")
    return instance


def _capacity_drift_delta(instance, arrangement, rng) -> Delta:
    """A delta mixing shrinks, raises and drift against the live state."""
    index = instance.index
    events = [e.event_id for e in instance.events]
    users = [u.user_id for u in instance.users]
    shrink_targets = rng.choice(events, size=4, replace=False)
    set_event_capacity = tuple(
        (int(e), int(max(0, arrangement.attendance(int(e)) - 1)))
        if i < 2
        else (int(e), int(index.event_capacity[index.event_pos[int(e)]]) + 3)
        for i, e in enumerate(shrink_targets)
    )
    user_targets = rng.choice(users, size=min(3, len(users)), replace=False)
    set_user_capacity = tuple(
        (int(u), int(rng.integers(0, 4))) for u in user_targets
    )
    drift = []
    for user in instance.users[:: max(1, len(users) // 8)]:
        if user.bids:
            drift.append(
                (int(user.bids[0]), user.user_id, float(rng.uniform()))
            )
    return Delta(
        set_event_capacity=set_event_capacity,
        set_user_capacity=set_user_capacity,
        interest=tuple(drift),
    )


@pytest.mark.parametrize("kind,num_users", INDEX_CONFIGS)
def test_capacity_drift_patch_bit_identical(kind, num_users):
    for seed in range(3):
        instance = _instance(seed, kind, num_users)
        arrangement = GGGreedy().solve(instance, seed=seed).arrangement
        rng = np.random.default_rng(seed + 100)
        delta = _capacity_drift_delta(instance, arrangement, rng)
        result = apply_delta(instance, delta, arrangement)
        patched = result.instance.index
        assert type(patched) is type(instance.index)
        mismatches = index_parity_mismatches(
            patched, fresh_index_like(patched, result.instance)
        )
        assert mismatches == [], (kind, num_users, seed, mismatches)


@pytest.mark.parametrize("kind,num_users", INDEX_CONFIGS)
def test_shrink_carry_feasible_and_repair_leaves_no_violation(kind, num_users):
    for seed in range(3):
        instance = _instance(seed, kind, num_users)
        arrangement = LocalSearch(GGGreedy()).solve(instance, seed=seed).arrangement
        rng = np.random.default_rng(seed + 200)
        delta = _capacity_drift_delta(instance, arrangement, rng)
        result = apply_delta(instance, delta, arrangement)
        assert result.arrangement.is_feasible(), (kind, num_users, seed)
        repair(result)
        assert result.arrangement.is_feasible(), (kind, num_users, seed)
        index = result.instance.index
        for event_id, capacity in delta.set_event_capacity:
            if event_id in index.event_pos:
                assert result.arrangement.attendance(event_id) <= capacity
        for user_id, capacity in delta.set_user_capacity:
            if user_id in index.user_pos:
                assert result.arrangement.load(user_id) <= capacity


@pytest.mark.parametrize("kind,num_users", INDEX_CONFIGS)
def test_dynamic_trace_replay_parity_and_feasibility(kind, num_users):
    """A full generated trace (drift + shocks + shrink bursts) replays with
    per-batch index parity and feasibility on every index configuration."""
    instance = _instance(11, kind, num_users)
    trace = generate_churn_trace(instance, DYNAMIC_CHURN, seed=12)
    summary = trace.summary()
    assert summary["event_capacity_updates"] > 0
    assert summary["user_capacity_updates"] > 0
    report = replay_trace(trace, seed=0, compare_full=False, check_parity=True)
    assert report.all_feasible
    assert report.all_parity


def test_dynamic_trace_identical_across_implementations():
    """Replaying one dynamic trace must produce identical arrangements on
    the dense and the CSR index (fixed seed, same moves)."""
    dense = _instance(5, "dense", None)
    trace = generate_churn_trace(dense, DYNAMIC_CHURN, seed=6)
    report_dense = replay_trace(trace, seed=0, compare_full=False)

    sharded = _instance(5, "sharded", None)
    trace_sharded = generate_churn_trace(sharded, DYNAMIC_CHURN, seed=6)
    report_sharded = replay_trace(trace_sharded, seed=0, compare_full=False)

    for dense_record, sharded_record in zip(
        report_dense.records, report_sharded.records
    ):
        assert dense_record.num_pairs == sharded_record.num_pairs
        assert dense_record.incremental_utility == sharded_record.incremental_utility
