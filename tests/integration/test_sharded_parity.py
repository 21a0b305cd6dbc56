"""Sharded vs dense index parity: identical bits, identical decisions.

The tentpole guarantee of the sharded index: under a fixed seed, every
algorithm makes the same decisions on a :class:`ShardedInstanceIndex` as on
the dense :class:`InstanceIndex`, for every shard size — and churn deltas
patch the sharded index to the same bits a from-scratch build produces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GGGreedy, LocalSearch, LPPacking, RandomU, RandomV
from repro.datagen import (
    ChurnConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
)
from repro.experiments.replay import replay_trace
from repro.model import InstanceIndex, ShardedInstanceIndex
from repro.model.delta import (
    apply_delta,
    fresh_index_like,
    index_parity_mismatches,
)

CONFIG = SyntheticConfig(num_users=240, num_events=40)
SHARD_SIZES = (1, 7, None)  # None -> one shard covering all users


def _pair(seed: int, shard_size: int | None):
    dense = generate_synthetic(CONFIG, seed=seed)
    dense.configure_index(sharded=False)
    sharded = generate_synthetic(CONFIG, seed=seed)
    size = CONFIG.num_users if shard_size is None else shard_size
    sharded.configure_index(sharded=True, shard_size=size)
    return dense, sharded


@pytest.mark.parametrize("shard_size", SHARD_SIZES)
def test_index_arrays_bit_identical(shard_size):
    dense, sharded = _pair(3, shard_size)
    di, si = dense.index, sharded.index
    assert isinstance(di, InstanceIndex)
    assert isinstance(si, ShardedInstanceIndex)
    for name in ShardedInstanceIndex.PARITY_ARRAYS:
        a, b = getattr(di, name), getattr(si, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert di.user_pos == si.user_pos
    assert di.event_pos == si.event_pos


@pytest.mark.parametrize("shard_size", SHARD_SIZES)
def test_shard_slabs_match_dense_rows(shard_size):
    dense, sharded = _pair(4, shard_size)
    di, si = dense.index, sharded.index
    covered = 0
    for shard in si.iter_shards():
        assert np.array_equal(shard.W, di.W[shard.start : shard.stop])
        assert np.array_equal(shard.SI, di.SI[shard.start : shard.stop])
        assert np.array_equal(shard.bid_mask, di.bid_mask[shard.start : shard.stop])
        np.testing.assert_array_equal(
            shard.bid_indptr[-1] - shard.bid_indptr[0],
            di.bid_indptr[shard.stop] - di.bid_indptr[shard.start],
        )
        covered += shard.num_users
    assert covered == si.num_users


@pytest.mark.parametrize("shard_size", SHARD_SIZES)
@pytest.mark.parametrize(
    "factory",
    [
        lambda: GGGreedy(),
        lambda: LocalSearch(GGGreedy()),
        lambda: LPPacking(alpha=1.0),
        lambda: RandomU(),
        lambda: RandomV(),
    ],
    ids=["gg", "gg+ls", "lp-packing", "random-u", "random-v"],
)
def test_fixed_seed_arrangements_identical(shard_size, factory):
    dense, sharded = _pair(5, shard_size)
    a = factory().solve(dense, seed=11)
    b = factory().solve(sharded, seed=11)
    assert a.arrangement.pairs == b.arrangement.pairs
    assert a.utility == b.utility


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
def test_churn_deltas_patch_sharded_index_bit_identical(shard_size):
    _dense, sharded = _pair(6, shard_size)
    trace = _trace(sharded, seed=7)
    instance = trace.initial
    for delta in trace.deltas:
        result = apply_delta(instance, delta)
        patched = result.instance.index
        assert isinstance(patched, ShardedInstanceIndex)
        assert patched.shard_size == instance.index.shard_size
        fresh = fresh_index_like(patched, result.instance)
        assert index_parity_mismatches(patched, fresh) == []
        instance = result.instance


def test_replay_identical_across_implementations():
    dense, sharded = _pair(8, 7)
    dense_report = replay_trace(_trace(dense, seed=9), seed=1, check_parity=True)
    sharded_report = replay_trace(_trace(sharded, seed=9), seed=1, check_parity=True)
    assert dense_report.all_parity and sharded_report.all_parity
    assert dense_report.all_feasible and sharded_report.all_feasible
    for a, b in zip(dense_report.records, sharded_report.records):
        assert a.incremental_utility == b.incremental_utility
        assert a.full_utility == b.full_utility
        assert a.num_pairs == b.num_pairs
