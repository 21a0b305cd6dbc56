"""Unit tests for the sharded index and the shared indexing protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import SyntheticConfig, generate_synthetic
from repro.model import (
    IGEPAInstance,
    IndexCapacityError,
    InstanceIndex,
    ShardedInstanceIndex,
)
from repro.model.conflicts import MatrixConflict
from repro.model.entities import Event, User
from repro.model.index import DENSE_CELL_CAP, build_degrees
from repro.model.interest import TabulatedInterest
from repro.social.generators import empty_graph

CONFIG = SyntheticConfig(num_users=150, num_events=30)


@pytest.fixture()
def instance():
    return generate_synthetic(CONFIG, seed=1)


def test_shard_layout_covers_all_users(instance):
    index = ShardedInstanceIndex(instance, shard_size=40)
    assert index.shard_size == 40
    assert index.num_shards == 4
    bounds = [index.shard_bounds(s) for s in range(index.num_shards)]
    assert bounds[0] == (0, 40)
    assert bounds[-1] == (120, 150)


def test_pair_accessors_match_dense(instance):
    dense = InstanceIndex(instance)
    sharded = ShardedInstanceIndex(instance, shard_size=7)
    rng = np.random.default_rng(0)
    upos = rng.integers(dense.num_users, size=200)
    vpos = rng.integers(dense.num_events, size=200)
    assert np.array_equal(
        dense.pair_bid_mask(upos, vpos), sharded.pair_bid_mask(upos, vpos)
    )
    assert np.array_equal(
        dense.pair_weights(upos, vpos), sharded.pair_weights(upos, vpos)
    )
    assert np.array_equal(dense.pair_si(upos, vpos), sharded.pair_si(upos, vpos))
    for u, v in zip(upos[:50].tolist(), vpos[:50].tolist()):
        assert dense.is_bid_pair(u, v) == sharded.is_bid_pair(u, v)
        assert dense.weight_at(u, v) == sharded.weight_at(u, v)
        assert dense.si_at(u, v) == sharded.si_at(u, v)
    for v in range(dense.num_events):
        assert np.array_equal(dense.weight_column(v), sharded.weight_column(v))
        assert np.array_equal(
            dense.event_bidder_weights(v), sharded.event_bidder_weights(v)
        )


def test_dense_index_refuses_beyond_cap():
    users = [User(user_id=0, capacity=1)]
    events = [Event(event_id=0, capacity=1)]
    instance = IGEPAInstance(
        events=events,
        users=users,
        conflict=MatrixConflict([]),
        interest=TabulatedInterest({}),
        social=empty_graph([0]),
    )
    # Fake the size check's inputs rather than allocating 10^7 objects.
    instance.users = users * (DENSE_CELL_CAP // len(events) + 1)
    with pytest.raises(IndexCapacityError):
        InstanceIndex(instance)


def test_configure_index_selects_implementation(instance):
    assert isinstance(instance.index, InstanceIndex)
    instance.configure_index(sharded=True, shard_size=13)
    index = instance.index
    assert isinstance(index, ShardedInstanceIndex)
    assert index.shard_size == 13
    instance.configure_index(sharded=False)
    assert isinstance(instance.index, InstanceIndex)


def test_sharded_index_has_no_dense_matrices(instance):
    index = ShardedInstanceIndex(instance, shard_size=10)
    assert not hasattr(index, "W")
    assert not hasattr(index, "SI")
    assert not hasattr(index, "bid_mask")


def test_assigned_totals_match_dense(instance):
    dense = InstanceIndex(instance)
    sharded = ShardedInstanceIndex(instance, shard_size=11)
    rng = np.random.default_rng(2)
    mask = np.zeros((dense.num_users, dense.num_events), dtype=bool)
    # Random subset of bid pairs only (the clean-arrangement contract).
    take = rng.random(dense.bid_indices.size) < 0.5
    mask[dense.bid_user_positions[take], dense.bid_indices[take]] = True
    import math

    assert math.fsum(dense.assigned_weight_total(mask)) == math.fsum(
        sharded.assigned_weight_total(mask)
    )
    assert math.fsum(dense.assigned_si_total(mask)) == math.fsum(
        sharded.assigned_si_total(mask)
    )


def test_build_degrees_matches_scalar_reference():
    config = SyntheticConfig(
        num_users=60, num_events=10, materialize_social_graph=True
    )
    instance = generate_synthetic(config, seed=3)
    degrees = build_degrees(instance)
    norm = instance.num_users - 1
    for i, user in enumerate(instance.users):
        expected = (
            instance.social.degree(user.user_id) / norm
            if instance.social.has_node(user.user_id)
            else 0.0
        )
        assert degrees[i] == expected


def test_build_degrees_override_branch():
    instance = generate_synthetic(CONFIG, seed=4)  # degree overrides by default
    assert instance.degrees_override is not None
    degrees = build_degrees(instance)
    for i, user in enumerate(instance.users):
        assert degrees[i] == instance.degrees_override.get(user.user_id, 0.0)


def test_empty_instance_sharded_index():
    instance = IGEPAInstance(
        events=[],
        users=[],
        conflict=MatrixConflict([]),
        interest=TabulatedInterest({}),
        social=empty_graph([]),
    )
    index = ShardedInstanceIndex(instance)
    assert index.num_shards == 1
    assert list(index.iter_shards())[0].num_users == 0
    assert index.pair_weights(np.empty(0, dtype=int), np.empty(0, dtype=int)).size == 0


def test_pair_lookups_without_bids():
    """With no bid entries at all, every pair is a non-bid pair."""
    instance = IGEPAInstance(
        events=[Event(event_id=1, capacity=1)],
        users=[User(user_id=7, capacity=1, bids=())],
        conflict=MatrixConflict([]),
        interest=TabulatedInterest({}),
        social=empty_graph([7]),
    )
    index = ShardedInstanceIndex(instance)
    assert not index.is_bid_pair(0, 0)
    assert index.weight_at(0, 0) == 0.0
    assert index.pair_weights(np.array([0]), np.array([0])).tolist() == [0.0]
