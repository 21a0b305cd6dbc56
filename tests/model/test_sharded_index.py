"""Unit tests for the CSR index, the size selector and the shared
indexing protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import SyntheticConfig, generate_synthetic
from repro.model import (
    Arrangement,
    IGEPAInstance,
    IndexCapacityError,
    InstanceIndex,
    ShardedInstanceIndex,
)
from repro.model.conflicts import MatrixConflict
from repro.model.delta import (
    Delta,
    apply_delta,
    fresh_index_like,
    index_parity_mismatches,
)
from repro.model.entities import Event, User
from repro.model.index import DENSE_CELL_CAP, build_degrees
from repro.model.interest import TabulatedInterest
from repro.social.generators import empty_graph
from tests.util import lower_dense_cap

CONFIG = SyntheticConfig(num_users=150, num_events=30)


@pytest.fixture()
def instance():
    return generate_synthetic(CONFIG, seed=1)


def test_index_is_dense_at_the_cap(instance, monkeypatch):
    lower_dense_cap(monkeypatch, CONFIG.num_users * CONFIG.num_events)
    assert type(instance.index) is InstanceIndex


def test_index_is_csr_above_the_cap(instance, monkeypatch):
    lower_dense_cap(monkeypatch, CONFIG.num_users * CONFIG.num_events - 1)
    assert type(instance.index) is ShardedInstanceIndex


def test_growth_past_the_cap_switches_the_successor_to_csr(instance, monkeypatch):
    lower_dense_cap(monkeypatch, CONFIG.num_users * CONFIG.num_events)
    assert type(instance.index) is InstanceIndex
    new_event = 10**6
    user_id = instance.users[0].user_id
    delta = Delta(
        add_events=(Event(event_id=new_event, capacity=3),),
        add_bids=((user_id, new_event),),
        interest=((new_event, user_id, 0.5),),
    )
    successor = apply_delta(instance, delta).instance
    patched = successor.index
    assert type(patched) is ShardedInstanceIndex
    assert index_parity_mismatches(patched, fresh_index_like(patched, successor)) == []
    # A full rebuild picks its index by size too, and lands on the same bits.
    rebuilt = apply_delta(instance, delta, incremental=False).instance.index
    assert type(rebuilt) is ShardedInstanceIndex
    assert index_parity_mismatches(patched, rebuilt) == []


def _patched_and_rebuilt(instance, delta):
    """The successor index of ``delta`` on the patched path and on
    ``apply_delta(..., incremental=False)``'s from-scratch build."""
    patched = apply_delta(instance, delta).instance.index
    rebuilt = apply_delta(instance, delta, incremental=False).instance.index
    return patched, rebuilt


def test_shrink_below_the_cap_switches_both_paths_to_dense(instance, monkeypatch):
    lower_dense_cap(monkeypatch, CONFIG.num_users * CONFIG.num_events - 1)
    assert type(instance.index) is ShardedInstanceIndex
    delta = Delta(remove_users=(instance.users[0].user_id,))
    patched, rebuilt = _patched_and_rebuilt(instance, delta)
    assert type(patched) is InstanceIndex
    assert type(rebuilt) is InstanceIndex
    assert index_parity_mismatches(patched, rebuilt) == []


def test_configured_dense_growth_past_the_cap_switches_both_paths_to_csr(
    instance, monkeypatch
):
    lower_dense_cap(monkeypatch, CONFIG.num_users * CONFIG.num_events)
    instance.configure_index(sharded=False)
    assert type(instance.index) is InstanceIndex
    new_event = 10**6
    user_id = instance.users[0].user_id
    delta = Delta(
        add_events=(Event(event_id=new_event, capacity=3),),
        add_bids=((user_id, new_event),),
        interest=((new_event, user_id, 0.5),),
    )
    patched, rebuilt = _patched_and_rebuilt(instance, delta)
    assert type(patched) is ShardedInstanceIndex
    assert type(rebuilt) is ShardedInstanceIndex
    assert index_parity_mismatches(patched, rebuilt) == []


def test_pair_accessors_match_dense(instance):
    dense = InstanceIndex(instance)
    sharded = ShardedInstanceIndex(instance)
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
    instance.configure_index(sharded=True)
    assert isinstance(instance.index, ShardedInstanceIndex)
    instance.configure_index(sharded=False)
    assert isinstance(instance.index, InstanceIndex)


def test_sharded_index_has_no_dense_matrices(instance):
    index = ShardedInstanceIndex(instance)
    assert not hasattr(index, "W")
    assert not hasattr(index, "SI")
    assert not hasattr(index, "bid_mask")


def test_assigned_totals_match_dense(instance):
    """``utility()`` and ``interest_total()`` of the same pairs agree
    bit for bit on the dense and the CSR index."""
    dense = InstanceIndex(instance)
    rng = np.random.default_rng(2)
    # Random subset of bid pairs only (the arrangement contract).
    take = rng.random(dense.bid_indices.size) < 0.5
    upos = dense.bid_user_positions[take]
    vpos = dense.bid_indices[take]
    totals = []
    for sharded in (False, True):
        instance.configure_index(sharded=sharded)
        assert isinstance(
            instance.index, ShardedInstanceIndex if sharded else InstanceIndex
        )
        arrangement = Arrangement.from_positions(instance, upos, vpos)
        totals.append((arrangement.utility(), arrangement.interest_total()))
    assert totals[0] == totals[1]


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
    assert index.num_users == 0
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
