"""Constructor parity: one store, identical bits everywhere.

Every instance is backed by a :class:`~repro.model.columnar.ColumnarStore`,
whichever constructor built it.  For a fixed seed, an instance built by
``IGEPAInstance.from_store`` (the synthetic stream generator) and the same
content handed to the entity constructor ``IGEPAInstance(events, users,
...)`` give bit-identical indexes — across shard sizes — and identical
fixed-seed arrangements, and churn deltas patch either store (and its
index) to the same bits a from-scratch rebuild produces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GGGreedy, LocalSearch, LPPacking
from repro.datagen import (
    ChurnConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic_stream,
)
from repro.experiments.replay import fresh_index_like, index_parity_mismatches
from repro.model import InstanceIndex, ShardedInstanceIndex
from repro.model.columnar import ColumnarInterest
from repro.model.delta import apply_delta
from tests.util import entity_built_twin

CONFIG = SyntheticConfig(num_users=240, num_events=40)
SHARD_SIZES = (1, 7, None)  # None -> one shard covering all users


def _pair(seed: int):
    columnar = generate_synthetic_stream(CONFIG, seed=seed)
    entity = entity_built_twin(columnar)
    assert isinstance(columnar.interest, ColumnarInterest)
    assert not isinstance(entity.interest, ColumnarInterest)
    assert entity.store is not columnar.store
    return columnar, entity


def _assert_index_parity(a, b):
    assert type(a) is type(b)
    for name in type(a).PARITY_ARRAYS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name
    assert a.user_pos == b.user_pos
    assert a.event_pos == b.event_pos


@pytest.mark.parametrize("shard_size", SHARD_SIZES)
def test_sharded_index_bits_identical(shard_size):
    columnar, entity = _pair(3)
    size = CONFIG.num_users if shard_size is None else shard_size
    columnar.configure_index(sharded=True, shard_size=size)
    entity.configure_index(sharded=True, shard_size=size)
    ci, ei = columnar.index, entity.index
    assert isinstance(ci, ShardedInstanceIndex)
    _assert_index_parity(ci, ei)


def test_dense_index_bits_identical():
    columnar, entity = _pair(4)
    columnar.configure_index(sharded=False)
    entity.configure_index(sharded=False)
    ci, ei = columnar.index, entity.index
    assert isinstance(ci, InstanceIndex)
    _assert_index_parity(ci, ei)


def test_store_arrays_shared_with_index():
    # The zero-copy contract: the index's primary arrays ARE the store's
    # columns, and the CSR fast path hands back the store's bid arrays.
    columnar, _ = _pair(5)
    index = columnar.index
    store = columnar.store
    assert index.user_ids is store.user_ids
    assert index.bid_indptr is store.bid_indptr
    assert index.bid_si is store.bid_si


@pytest.mark.parametrize(
    "factory",
    [
        lambda: GGGreedy(),
        lambda: LocalSearch(GGGreedy()),
        lambda: LPPacking(alpha=1.0),
    ],
    ids=["gg", "gg+ls", "lp-packing"],
)
def test_fixed_seed_arrangements_identical(factory):
    columnar, entity = _pair(6)
    a = factory().solve(columnar, seed=11)
    b = factory().solve(entity, seed=11)
    assert a.arrangement.pairs == b.arrangement.pairs
    assert a.utility == b.utility


def test_object_built_store_matches_stream_store():
    columnar, entity = _pair(7)
    packed = entity.store  # ColumnarStore.from_entities in the constructor
    native = columnar.store
    np.testing.assert_array_equal(packed.user_ids, native.user_ids)
    np.testing.assert_array_equal(packed.user_capacity, native.user_capacity)
    np.testing.assert_array_equal(packed.bid_indptr, native.bid_indptr)
    np.testing.assert_array_equal(packed.bid_event_pos, native.bid_event_pos)
    np.testing.assert_array_equal(packed.degrees, native.degrees)


def _trace(instance, seed):
    config = ChurnConfig(
        num_batches=4,
        user_arrival_rate=8.0,
        user_departure_rate=8.0,
        rebid_rate=15.0,
        event_open_rate=1.0,
        event_close_rate=1.0,
        conflict_toggle_rate=1.0,
        burst_every=2,
        base=CONFIG,
    )
    return generate_churn_trace(instance, config, seed=seed)


@pytest.mark.parametrize("shard_size", SHARD_SIZES)
def test_churn_deltas_patch_columnar_store_bit_identical(shard_size):
    size = CONFIG.num_users if shard_size is None else shard_size
    for built in _pair(8):
        built.configure_index(sharded=True, shard_size=size)
        trace = _trace(built, seed=9)
        instance = trace.initial
        for delta in trace.deltas:
            result = apply_delta(instance, delta)
            successor = result.instance
            assert successor.store is not instance.store
            patched = successor.index
            assert patched.shard_size == instance.index.shard_size
            assert index_parity_mismatches(
                patched, fresh_index_like(patched, successor)
            ) == []
            # The successor's store must itself rebuild to the same index
            # bits: its columns double as the patched index's primary arrays.
            rebuilt = ShardedInstanceIndex(successor, shard_size=patched.shard_size)
            _assert_index_parity(patched, rebuilt)
            instance = successor


def test_churn_deltas_on_spilled_store(tmp_path):
    columnar = generate_synthetic_stream(
        CONFIG, seed=10, spill_budget_bytes=0, spill_dir=str(tmp_path)
    )
    assert columnar.store.spilled_bytes > 0
    trace = _trace(columnar, seed=11)
    instance = trace.initial
    for delta in trace.deltas:
        result = apply_delta(instance, delta)
        patched = result.instance.index
        assert index_parity_mismatches(
            patched, fresh_index_like(patched, result.instance)
        ) == []
        instance = result.instance


def test_delta_replay_matches_entity_path():
    columnar, entity = _pair(12)
    trace_c = _trace(columnar, seed=13)
    trace_e = _trace(entity, seed=13)
    inst_c, inst_e = trace_c.initial, trace_e.initial
    for delta_c, delta_e in zip(trace_c.deltas, trace_e.deltas):
        inst_c = apply_delta(inst_c, delta_c).instance
        inst_e = apply_delta(inst_e, delta_e).instance
        _assert_index_parity(inst_c.index, inst_e.index)
        assert [u.bids for u in inst_c.users] == [u.bids for u in inst_e.users]
        # Interest tables agree on every live bid pair (the columnar table
        # deliberately drops values of withdrawn bids, so compare per pair).
        items_c, items_e = inst_c.interest.items(), inst_e.interest.items()
        for user in inst_c.users:
            for event_id in user.bids:
                key = (event_id, user.user_id)
                assert items_c[key] == items_e[key]
