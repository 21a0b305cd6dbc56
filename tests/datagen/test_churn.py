"""Unit tests for the churn trace generator."""

import pytest

from repro.datagen import (
    ChurnConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
)
from repro.model import CosineInterest, IGEPAInstance, apply_delta
from tests.util import random_instance

SMALL = SyntheticConfig(num_events=15, num_users=60)
RATES = dict(
    user_arrival_rate=4.0,
    user_departure_rate=4.0,
    rebid_rate=6.0,
    event_open_rate=1.0,
    event_close_rate=1.0,
    conflict_toggle_rate=1.5,
)


def small_trace(seed=0, **overrides):
    instance = generate_synthetic(SMALL, seed=seed)
    config = ChurnConfig(num_batches=8, **{**RATES, **overrides})
    return generate_churn_trace(instance, config, seed=seed + 100)


class TestConfig:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rebid_rate"):
            ChurnConfig(rebid_rate=-1.0)

    def test_bad_burst_fraction_rejected(self):
        with pytest.raises(ValueError, match="burst_event_close_fraction"):
            ChurnConfig(burst_event_close_fraction=1.5)

    def test_with_overrides(self):
        config = ChurnConfig().with_overrides(num_batches=3)
        assert config.num_batches == 3


class TestGeneration:
    def test_batch_count_and_summary(self):
        trace = small_trace()
        assert len(trace.deltas) == 8
        summary = trace.summary()
        assert summary["batches"] == 8
        assert summary["add_users"] > 0
        assert summary["remove_users"] > 0
        assert summary["add_bids"] > 0

    def test_deterministic_under_seed(self):
        first = small_trace(seed=7)
        second = small_trace(seed=7)
        assert first.deltas == second.deltas

    def test_different_seeds_differ(self):
        assert small_trace(seed=1).deltas != small_trace(seed=2).deltas

    def test_every_delta_applies_cleanly(self):
        """The mirror state must stay consistent with the real instance:
        every generated delta validates and applies against the chain."""
        trace = small_trace(seed=3)
        instance = trace.initial
        for delta in trace.deltas:
            instance = apply_delta(instance, delta).instance
        assert instance.num_users >= 1
        assert instance.num_events >= 1

    def test_ids_are_never_reused(self):
        trace = small_trace(seed=4)
        seen_users = {u.user_id for u in trace.initial.users}
        seen_events = {e.event_id for e in trace.initial.events}
        for delta in trace.deltas:
            for user in delta.add_users:
                assert user.user_id not in seen_users
                seen_users.add(user.user_id)
            for event in delta.add_events:
                assert event.event_id not in seen_events
                seen_events.add(event.event_id)

    def test_burst_batches_are_larger(self):
        steady = small_trace(seed=5, burst_every=0)
        bursty = small_trace(
            seed=5,
            burst_every=4,
            burst_user_multiplier=10.0,
            burst_event_close_fraction=0.4,
        )
        burst_arrivals = [
            len(d.add_users) for i, d in enumerate(bursty.deltas) if (i + 1) % 4 == 0
        ]
        steady_arrivals = [len(d.add_users) for d in steady.deltas]
        assert max(burst_arrivals) > max(steady_arrivals)

    def test_requires_tabulated_interest(self):
        base = random_instance(seed=0)
        instance = IGEPAInstance(
            list(base.events),
            list(base.users),
            base.conflict,
            CosineInterest(),
            base.social,
            beta=base.beta,
        )
        with pytest.raises(TypeError, match="TabulatedInterest"):
            generate_churn_trace(instance, ChurnConfig(num_batches=1), seed=0)

    def test_graph_backed_instance_supported(self):
        """random_instance has no degree overrides; arrivals then carry no
        degree entries and the deltas still apply."""
        instance = random_instance(seed=6, num_users=20, num_events=8)
        trace = generate_churn_trace(
            instance, ChurnConfig(num_batches=3, **RATES), seed=1
        )
        current = instance
        for delta in trace.deltas:
            assert delta.degrees == ()
            current = apply_delta(current, delta).instance


class TestDynamicDeltaKinds:
    """Drift, capacity shocks and shrink bursts ride on the same trace."""

    DYNAMIC = dict(
        drift_rate=8.0,
        capacity_shock_rate=3.0,
        user_capacity_shock_rate=2.0,
        burst_every=4,
        burst_capacity_shrink_fraction=0.3,
    )

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError, match="drift_rate"):
            ChurnConfig(drift_rate=-1.0)
        with pytest.raises(ValueError, match="capacity_shock_rate"):
            ChurnConfig(capacity_shock_rate=-0.5)
        with pytest.raises(ValueError, match="burst_capacity_shrink_fraction"):
            ChurnConfig(burst_capacity_shrink_fraction=2.0)

    def test_default_knobs_emit_no_dynamic_ops(self):
        trace = small_trace(seed=3)
        summary = trace.summary()
        assert summary["event_capacity_updates"] == 0
        assert summary["user_capacity_updates"] == 0

    def test_dynamic_trace_emits_and_applies(self):
        trace = small_trace(seed=3, **self.DYNAMIC)
        summary = trace.summary()
        assert summary["event_capacity_updates"] > 0
        assert summary["user_capacity_updates"] > 0
        assert summary["interest_updates"] > 0
        current = trace.initial
        for delta in trace.deltas:
            current = apply_delta(current, delta).instance

    def test_mirror_capacities_track_the_model(self):
        """Capacity updates always target the entity's *current* capacity
        mirror, so replaying the deltas reproduces the generator's view."""
        trace = small_trace(seed=9, **self.DYNAMIC)
        current = trace.initial
        for delta in trace.deltas:
            current = apply_delta(current, delta).instance
        # Every capacity change along the way stuck (or was overridden by a
        # later one): spot-check the final instance against the last update
        # per entity.
        last_event_cap = {}
        last_user_cap = {}
        for delta in trace.deltas:
            for event_id, capacity in delta.set_event_capacity:
                last_event_cap[event_id] = capacity
            for user_id, capacity in delta.set_user_capacity:
                last_user_cap[user_id] = capacity
        for event_id, capacity in last_event_cap.items():
            if event_id in current.event_by_id:
                assert current.event_by_id[event_id].capacity == capacity
        for user_id, capacity in last_user_cap.items():
            if user_id in current.user_by_id:
                assert current.user_by_id[user_id].capacity == capacity

    def test_burst_shrinks_capacities(self):
        """Burst batches carry shrink updates (halved capacities)."""
        steady = small_trace(seed=5, drift_rate=0.0)
        bursty = small_trace(
            seed=5,
            burst_every=4,
            burst_capacity_shrink_fraction=0.5,
        )
        burst_updates = [
            len(d.set_event_capacity)
            for i, d in enumerate(bursty.deltas)
            if (i + 1) % 4 == 0
        ]
        assert max(burst_updates) > 0
        assert all(
            len(d.set_event_capacity) == 0 for d in steady.deltas
        )

    def test_drift_targets_existing_bid_pairs(self):
        """Drift entries re-weight pairs that exist on the pre-batch
        platform (they survive into the successor unless churned away)."""
        trace = small_trace(seed=7, drift_rate=10.0)
        current = trace.initial
        for delta in trace.deltas:
            rebid_removed = set(delta.remove_bids)
            new_bid_pairs = {(u, e) for u, e in delta.add_bids} | {
                (user.user_id, e) for user in delta.add_users for e in user.bids
            }
            for event_id, user_id, value in delta.interest:
                assert 0.0 <= value <= 1.0
                if (user_id, event_id) in new_bid_pairs:
                    continue  # interest backing a new bid
                # a drift entry: the pair was a live bid before the batch
                assert (user_id, event_id) not in rebid_removed
                user = current.user_by_id[user_id]
                assert event_id in user.bid_set
            current = apply_delta(current, delta).instance
