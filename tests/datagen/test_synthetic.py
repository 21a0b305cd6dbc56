"""Unit tests for the synthetic (Table I) generator."""

import numpy as np
import pytest

from repro.datagen import TABLE1_DEFAULTS, SyntheticConfig, generate_synthetic


class TestTable1Defaults:
    """Table I: |V|=200, |U|=2000, max c_v=50, max c_u=4, pcf=0.3, pdeg=0.5."""

    def test_default_factors(self):
        assert TABLE1_DEFAULTS.num_events == 200
        assert TABLE1_DEFAULTS.num_users == 2000
        assert TABLE1_DEFAULTS.max_event_capacity == 50
        assert TABLE1_DEFAULTS.max_user_capacity == 4
        assert TABLE1_DEFAULTS.conflict_probability == 0.3
        assert TABLE1_DEFAULTS.friend_probability == 0.5

    def test_generated_instance_matches_defaults(self):
        instance = generate_synthetic(seed=0)
        assert instance.num_events == 200
        assert instance.num_users == 2000
        assert max(e.capacity for e in instance.events) <= 50
        assert max(u.capacity for u in instance.users) <= 4
        assert min(e.capacity for e in instance.events) >= 1
        assert min(u.capacity for u in instance.users) >= 1


class TestSmallerInstances:
    """Structural checks on reduced sizes (fast)."""

    CONFIG = SyntheticConfig(num_events=40, num_users=100)

    def test_determinism(self):
        a = generate_synthetic(self.CONFIG, seed=7)
        b = generate_synthetic(self.CONFIG, seed=7)
        assert [u.bids for u in a.users] == [u.bids for u in b.users]
        assert [e.capacity for e in a.events] == [e.capacity for e in b.events]
        assert a.degrees_override == b.degrees_override
        assert a.conflict.to_dict() == b.conflict.to_dict()

    def test_seeds_differ(self):
        a = generate_synthetic(self.CONFIG, seed=1)
        b = generate_synthetic(self.CONFIG, seed=2)
        assert [u.bids for u in a.users] != [u.bids for u in b.users]

    def test_capacities_in_range(self):
        instance = generate_synthetic(self.CONFIG, seed=3)
        assert all(1 <= e.capacity <= 50 for e in instance.events)
        assert all(1 <= u.capacity <= 4 for u in instance.users)

    def test_capacity_spread_is_uniformish(self):
        """Capacities come from uniform distributions, so the full range
        should appear at Table-I scale."""
        instance = generate_synthetic(seed=5)
        user_caps = {u.capacity for u in instance.users}
        assert user_caps == {1, 2, 3, 4}

    def test_conflict_density_near_pcf(self):
        instance = generate_synthetic(
            SyntheticConfig(num_events=100, num_users=10), seed=4
        )
        density = instance.statistics()["conflict_density"]
        assert abs(density - 0.3) < 0.07

    def test_bid_counts_in_range(self):
        instance = generate_synthetic(self.CONFIG, seed=5)
        for user in instance.users:
            assert 2 <= len(user.bids) <= 6

    def test_bids_reference_existing_events(self):
        instance = generate_synthetic(self.CONFIG, seed=6)
        event_ids = {e.event_id for e in instance.events}
        for user in instance.users:
            assert set(user.bids) <= event_ids

    def test_interest_defined_for_every_bid_pair(self):
        instance = generate_synthetic(self.CONFIG, seed=8)
        for user in instance.users[:20]:
            for event_id in user.bids:
                assert 0.0 <= instance.interest_of(event_id, user.user_id) <= 1.0

    def test_dependent_bids_conflict_more_than_uniform(self):
        """The paper's bid model draws from conflict clusters, so bid lists
        must contain conflicting pairs far above the uniform-bid rate."""
        clustered = generate_synthetic(
            SyntheticConfig(num_events=60, num_users=300, cluster_bid_fraction=0.9),
            seed=9,
        )
        uniform = generate_synthetic(
            SyntheticConfig(num_events=60, num_users=300, cluster_bid_fraction=0.0),
            seed=9,
        )

        def conflict_rate(instance):
            conflicting = total = 0
            for user in instance.users:
                for i, first in enumerate(user.bids):
                    for second in user.bids[i + 1 :]:
                        total += 1
                        conflicting += instance.conflicts(first, second)
            return conflicting / total

        assert conflict_rate(clustered) > conflict_rate(uniform) * 1.5


class TestSocialNetwork:
    def test_degree_sampling_matches_binomial_marginal(self):
        instance = generate_synthetic(
            SyntheticConfig(num_events=10, num_users=500), seed=10
        )
        degrees = np.array([instance.degree(u.user_id) for u in instance.users])
        # Binomial(499, 0.5) / 499: mean 0.5, std ~0.0224.
        assert abs(degrees.mean() - 0.5) < 0.01
        assert abs(degrees.std() - np.sqrt(0.25 / 499)) < 0.01

    def test_materialized_graph_mode(self):
        instance = generate_synthetic(
            SyntheticConfig(
                num_events=10, num_users=60, materialize_social_graph=True
            ),
            seed=11,
        )
        assert instance.degrees_override is None
        assert instance.social.number_of_edges > 0
        # Degree values still normalized by |U| - 1.
        for user in instance.users:
            assert 0.0 <= instance.degree(user.user_id) <= 1.0

    def test_single_user_degree_zero(self):
        instance = generate_synthetic(
            SyntheticConfig(num_events=5, num_users=1), seed=0
        )
        assert instance.degree(instance.users[0].user_id) == 0.0


class TestConfigValidation:
    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_events=-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacities"):
            SyntheticConfig(max_event_capacity=0)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError, match="p_cf"):
            SyntheticConfig(conflict_probability=1.1)
        with pytest.raises(ValueError, match="p_deg"):
            SyntheticConfig(friend_probability=-0.2)

    def test_bad_bid_range_rejected(self):
        with pytest.raises(ValueError, match="min_bids"):
            SyntheticConfig(min_bids=5, max_bids=3)

    def test_with_overrides(self):
        config = TABLE1_DEFAULTS.with_overrides(num_users=5000)
        assert config.num_users == 5000
        assert config.num_events == 200  # untouched
        assert TABLE1_DEFAULTS.num_users == 2000  # original unchanged

    def test_kwargs_overrides_in_generate(self):
        instance = generate_synthetic(seed=0, num_events=15, num_users=30)
        assert instance.num_events == 15
        assert instance.num_users == 30


class TestEdgeCases:
    def test_empty_instance(self):
        instance = generate_synthetic(
            SyntheticConfig(num_events=0, num_users=0), seed=0
        )
        assert instance.num_events == 0
        assert instance.num_users == 0

    def test_users_without_events_have_no_bids(self):
        instance = generate_synthetic(
            SyntheticConfig(num_events=0, num_users=5), seed=0
        )
        assert all(u.bids == () for u in instance.users)

    def test_more_min_bids_than_events_is_capped(self):
        instance = generate_synthetic(
            SyntheticConfig(num_events=2, num_users=5, min_bids=4, max_bids=6),
            seed=0,
        )
        for user in instance.users:
            assert len(user.bids) <= 2


class TestStreamGenerator:
    """Chunk-vectorized streaming generator for the ≥50k-user regime."""

    def test_determinism(self):
        from repro.datagen import generate_synthetic_stream

        config = SyntheticConfig(num_users=400, num_events=50)
        a = generate_synthetic_stream(config, seed=11, chunk_size=64)
        b = generate_synthetic_stream(config, seed=11, chunk_size=64)
        assert [u.bids for u in a.users] == [u.bids for u in b.users]
        assert [u.capacity for u in a.users] == [u.capacity for u in b.users]
        assert np.array_equal(a.store.bid_si, b.store.bid_si)
        assert a.degrees_override == b.degrees_override

    def test_workload_shape(self):
        from repro.datagen import generate_synthetic_stream

        config = SyntheticConfig(num_users=600, num_events=60)
        instance = generate_synthetic_stream(config, seed=3, chunk_size=100)
        assert instance.num_users == 600
        assert instance.num_events == 60
        stats = instance.statistics()
        assert config.min_bids - 1 <= stats["mean_bids_per_user"] <= config.max_bids
        for user in instance.users:
            assert 1 <= user.capacity <= config.max_user_capacity
            assert len(user.bids) <= config.max_bids
            for event_id in user.bids:
                assert 0 <= event_id < config.num_events
        # every bid pair carries a sampled interest value, in the store
        si = instance.store.bid_si
        assert si.size == instance.store.num_bids
        assert ((si >= 0.0) & (si <= 1.0)).all() and np.unique(si).size > 1
        assert instance.degrees_override is not None
        assert all(0.0 <= d <= 1.0 for d in instance.degrees_override.values())

    def test_chunk_size_does_not_change_totals(self):
        from repro.datagen import generate_synthetic_stream

        config = SyntheticConfig(num_users=300, num_events=40)
        small = generate_synthetic_stream(config, seed=5, chunk_size=32)
        # Different chunking redraws differently, but the workload shape and
        # validity must hold for any chunking.
        large = generate_synthetic_stream(config, seed=5, chunk_size=10_000)
        for instance in (small, large):
            assert instance.num_users == 300
            assert instance.index.num_bids == sum(
                len(u.bids) for u in instance.users
            )

    def test_rejects_materialized_graph(self):
        from repro.datagen import generate_synthetic_stream

        with pytest.raises(ValueError):
            generate_synthetic_stream(
                SyntheticConfig(num_users=10, num_events=5, materialize_social_graph=True),
                seed=0,
            )
