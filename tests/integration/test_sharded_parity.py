"""CSR vs dense index parity: identical bits, identical decisions.

The guarantee of the CSR index: under a fixed seed, every algorithm makes
the same decisions on a :class:`ShardedInstanceIndex` as on the dense
:class:`InstanceIndex`, on platforms of 1, 7 and 240 users — and churn
deltas patch the CSR index to the same bits a from-scratch build produces.
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
#: Platform sizes |U|; None -> CONFIG's 240 users.
PLATFORM_USERS = (1, 7, None)


def _config(num_users: int | None) -> SyntheticConfig:
    return CONFIG if num_users is None else CONFIG.with_overrides(num_users=num_users)


def _pair(seed: int, num_users: int | None):
    dense = generate_synthetic(_config(num_users), seed=seed)
    dense.configure_index(sharded=False)
    sharded = generate_synthetic(_config(num_users), seed=seed)
    sharded.configure_index(sharded=True)
    return dense, sharded


@pytest.mark.parametrize("num_users", PLATFORM_USERS)
def test_index_arrays_bit_identical(num_users):
    dense, sharded = _pair(3, num_users)
    di, si = dense.index, sharded.index
    assert isinstance(di, InstanceIndex)
    assert isinstance(si, ShardedInstanceIndex)
    for name in ShardedInstanceIndex.PARITY_ARRAYS:
        a, b = getattr(di, name), getattr(si, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert di.user_pos == si.user_pos
    assert di.event_pos == si.event_pos


@pytest.mark.parametrize("num_users", PLATFORM_USERS)
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
def test_fixed_seed_arrangements_identical(num_users, factory):
    dense, sharded = _pair(5, num_users)
    a = factory().solve(dense, seed=11)
    b = factory().solve(sharded, seed=11)
    assert a.arrangement.pairs == b.arrangement.pairs
    assert a.utility == b.utility


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
def test_churn_deltas_patch_sharded_index_bit_identical(num_users):
    _dense, sharded = _pair(6, num_users)
    trace = _trace(sharded, seed=7, num_users=num_users)
    instance = trace.initial
    for delta in trace.deltas:
        result = apply_delta(instance, delta)
        patched = result.instance.index
        assert isinstance(patched, ShardedInstanceIndex)
        fresh = fresh_index_like(patched, result.instance)
        assert index_parity_mismatches(patched, fresh) == []
        instance = result.instance


def test_replay_identical_across_implementations():
    dense, sharded = _pair(8, None)
    dense_report = replay_trace(_trace(dense, seed=9), seed=1, check_parity=True)
    sharded_report = replay_trace(_trace(sharded, seed=9), seed=1, check_parity=True)
    assert dense_report.all_parity and sharded_report.all_parity
    assert dense_report.all_feasible and sharded_report.all_feasible
    for a, b in zip(dense_report.records, sharded_report.records):
        assert a.incremental_utility == b.incremental_utility
        assert a.full_utility == b.full_utility
        assert a.num_pairs == b.num_pairs
