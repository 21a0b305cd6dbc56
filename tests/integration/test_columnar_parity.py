"""Constructor parity: one store, identical bits everywhere.

Every instance is backed by a :class:`~repro.model.columnar.ColumnarStore`,
whichever constructor built it.  For a fixed seed, an instance built by
``IGEPAInstance.from_store`` (the synthetic stream generator) and the same
content handed to the entity constructor ``IGEPAInstance(events, users,
...)`` give bit-identical indexes — on platforms of 1, 7 and 240 users —
and identical fixed-seed arrangements, and churn deltas patch either store
(and its index) to the same bits a from-scratch rebuild produces.
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
from repro.model import InstanceIndex, ShardedInstanceIndex
from repro.model.delta import (
    apply_delta,
    fresh_index_like,
    index_parity_mismatches,
)
from tests.util import entity_built_twin

CONFIG = SyntheticConfig(num_users=240, num_events=40)
#: Platform sizes |U| of the CSR-index cases; None -> CONFIG's 240 users.
PLATFORM_USERS = (1, 7, None)


def _config(num_users: int | None = None) -> SyntheticConfig:
    return CONFIG if num_users is None else CONFIG.with_overrides(num_users=num_users)


def _pair(seed: int, num_users: int | None = None):
    columnar = generate_synthetic_stream(_config(num_users), seed=seed)
    entity = entity_built_twin(columnar)
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


@pytest.mark.parametrize("num_users", PLATFORM_USERS)
def test_sharded_index_bits_identical(num_users):
    columnar, entity = _pair(3, num_users)
    columnar.configure_index(sharded=True)
    entity.configure_index(sharded=True)
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


def _trace(instance, seed, num_users=None):
    config = ChurnConfig(
        num_batches=4,
        user_arrival_rate=8.0,
        user_departure_rate=8.0,
        rebid_rate=15.0,
        event_open_rate=1.0,
        event_close_rate=1.0,
        conflict_toggle_rate=1.0,
        burst_every=2,
        base=_config(num_users),
    )
    return generate_churn_trace(instance, config, seed=seed)


@pytest.mark.parametrize("num_users", PLATFORM_USERS)
def test_churn_deltas_patch_columnar_store_bit_identical(num_users):
    for built in _pair(8, num_users):
        built.configure_index(sharded=True)
        trace = _trace(built, seed=9, num_users=num_users)
        instance = trace.initial
        for delta in trace.deltas:
            result = apply_delta(instance, delta)
            successor = result.instance
            assert successor.store is not instance.store
            patched = successor.index
            assert index_parity_mismatches(
                patched, fresh_index_like(patched, successor)
            ) == []
            # The successor's store must itself rebuild to the same index
            # bits: its columns double as the patched index's primary arrays.
            rebuilt = ShardedInstanceIndex(successor)
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
        # SI agrees on every live bid pair.
        for user in inst_c.users:
            for event_id in user.bids:
                assert inst_c.interest_of(event_id, user.user_id) == (
                    inst_e.interest_of(event_id, user.user_id)
                )
