"""The defrag LP rebuild path, checked against the per-element code it
replaced: the array-built benchmark LP and sampling over all users at
once.  Each reference below is the earlier implementation, kept here so the
fast path stays bit for bit equal to it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LPPacking, build_benchmark_lp
from repro.core.admissible import enumerate_all_admissible_sets
from repro.core.lp_formulation import BenchmarkLP, sum_in_order
from repro.core.lp_incremental import IncrementalBenchmarkLP
from repro.datagen import (
    ChurnConfig,
    MeetupConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_meetup,
    generate_synthetic,
    hotspot,
)
from repro.model.delta import apply_delta
from repro.solver import LinearProgram, Sense, solve_lp


def _synthetic(num_users, seed, sharded=False):
    instance = generate_synthetic(SyntheticConfig(num_users=num_users), seed=seed)
    if sharded:
        instance.configure_index(sharded=True, shard_size=max(1, num_users // 3))
    return instance


INSTANCES = {
    "synthetic-60-s0": lambda: _synthetic(60, 0),
    "synthetic-300-s1": lambda: _synthetic(300, 1),
    "synthetic-300-s2-sharded": lambda: _synthetic(300, 2, sharded=True),
    "synthetic-800-s3": lambda: _synthetic(800, 3),
    "meetup-s4": lambda: generate_meetup(MeetupConfig(num_users=200), seed=4),
    "hotspot": lambda: hotspot(seed=0),
}


# ----------------------------------------------------------------------
# The benchmark LP, built one object at a time (the reference)
# ----------------------------------------------------------------------
def _object_built(instance, *, implied_upper, integer=False, admissible=None):
    if admissible is None:
        admissible = enumerate_all_admissible_sets(instance)
    lp = LinearProgram(name=f"benchmark-lp[{instance.name}]", maximize=True)
    assignments = []
    by_user = {}
    event_cols = {event.event_id: [] for event in instance.events}
    for user in instance.users:
        indices = []
        for events in admissible.get(user.user_id, []):
            index = lp.add_variable(
                f"x[{user.user_id},{','.join(map(str, events))}]",
                lower=0.0,
                upper=math.inf if implied_upper else 1.0,
                objective=sum_in_order(instance.weight(user.user_id, e) for e in events),
                is_integer=integer,
            )
            assignments.append((user.user_id, events))
            indices.append(index)
            for event_id in dict.fromkeys(events):
                event_cols[event_id].append(index)
        by_user[user.user_id] = indices
        if indices:
            lp.add_constraint(
                dict.fromkeys(indices, 1.0), Sense.LE, 1.0, name=f"user[{user.user_id}]"
            )
    for event in instance.events:
        cols = event_cols[event.event_id]
        if cols:
            lp.add_constraint(
                dict.fromkeys(cols, 1.0),
                Sense.LE,
                float(event.capacity),
                name=f"event[{event.event_id}]",
            )
    return BenchmarkLP(lp, assignments, by_user, admissible)


def _assert_same_lp(built, reference):
    lp, ref = built.lp, reference.lp
    assert (lp.name, lp.maximize) == (ref.name, ref.maximize)
    assert [
        (v.name, v.index, v.lower, v.upper, v.is_integer) for v in lp.variables
    ] == [(v.name, v.index, v.lower, v.upper, v.is_integer) for v in ref.variables]
    objective = np.array([v.objective for v in lp.variables])
    expected = np.array([v.objective for v in ref.variables])
    assert objective.tobytes() == expected.tobytes()
    assert [
        (c.name, list(c.coefficients.items()), c.sense, c.rhs) for c in lp.constraints
    ] == [
        (c.name, list(c.coefficients.items()), c.sense, c.rhs) for c in ref.constraints
    ]
    # The primed cache equals the triplets the row dicts spell out.
    for ours, theirs in zip(lp.constraints_coo(), ref.constraints_coo()):
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    assert lp._names == ref._names
    assert built.assignments == reference.assignments
    assert built.by_user == reference.by_user


class TestArrayBuiltLP:
    @pytest.mark.parametrize("implied_upper", [False, True])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_equals_object_built(self, name, implied_upper):
        instance = INSTANCES[name]()
        _assert_same_lp(
            build_benchmark_lp(instance, implied_upper=implied_upper),
            _object_built(instance, implied_upper=implied_upper),
        )

    def test_integer_flag_equals_object_built(self):
        instance = _synthetic(60, 5)
        _assert_same_lp(
            build_benchmark_lp(instance, integer=True),
            _object_built(instance, implied_upper=False, integer=True),
        )

    def test_caller_supplied_sets_equal_object_built(self):
        """Repeated events, unsorted sets and off-bid pairs (scalar weights)."""
        instance = _synthetic(20, 6)
        first, second = instance.users[0], instance.users[1]
        off_bid = next(
            e.event_id for e in instance.events if e.event_id not in second.bid_set
        )
        bid = sorted(second.bids)[0]
        admissible = {
            first.user_id: [(bid, bid), (off_bid,)],
            second.user_id: [(off_bid, bid), (bid,)],
        }
        _assert_same_lp(
            build_benchmark_lp(instance, admissible=admissible),
            _object_built(instance, implied_upper=False, admissible=admissible),
        )

    def test_unknown_event_id_raises_key_error(self):
        instance = _synthetic(10, 7)
        with pytest.raises(KeyError):
            build_benchmark_lp(instance, admissible={instance.users[0].user_id: [(-5,)]})

    def test_duplicate_set_rejected_like_add_variable(self):
        instance = _synthetic(10, 8)
        user = instance.users[0]
        event_id = sorted(user.bids)[0]
        with pytest.raises(ValueError, match="duplicate variable name"):
            build_benchmark_lp(
                instance, admissible={user.user_id: [(event_id,), (event_id,)]}
            )


class TestOneSummationRule:
    """w(u, S) is added left to right wherever the benchmark LP gets it."""

    def test_sum_in_order_does_not_compensate(self):
        # Compensated summation (builtin sum() from Python 3.12 on) gives 2.0.
        assert sum_in_order([1.0, 1e100, 1.0, -1e100]) == 0.0

    def test_patched_objectives_equal_rebuilt_bits(self):
        instance = _synthetic(60, 9)
        trace = generate_churn_trace(
            instance, ChurnConfig(num_batches=4, drift_rate=30.0), seed=19
        )
        incremental = IncrementalBenchmarkLP(instance)
        current = instance
        for delta in trace.deltas:
            current = apply_delta(current, delta).instance
            incremental.observe_delta(delta, current)
        patched = {v.name: v.objective for v in incremental.benchmark.lp.variables}
        rebuilt = {v.name: v.objective for v in build_benchmark_lp(current).lp.variables}
        assert patched == rebuilt


# ----------------------------------------------------------------------
# Sampling, one user at a time (the reference)
# ----------------------------------------------------------------------
def _scalar_sample_sets(alpha, benchmark, x_star, rng):
    sampled = {}
    for user_id, indices in benchmark.by_user.items():
        if not indices:
            continue
        probabilities = alpha * np.clip(x_star[indices], 0.0, 1.0)
        total = float(probabilities.sum())
        if total > 1.0:
            probabilities /= total
        draw = rng.random()
        cumulative = np.cumsum(probabilities)
        offset = int(np.searchsorted(cumulative, draw, side="right"))
        if offset < len(indices):
            sampled[user_id] = benchmark.assignments[indices[offset]][1]
    return sampled


class _FixedDraws:
    """A stand-in generator whose uniform draws are given up front."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, size=None):
        if size is None:
            return self.draws.pop(0)
        taken, self.draws = self.draws[:size], self.draws[size:]
        return np.array(taken)


_value = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.floats(-0.5, 1.5),
    st.sampled_from([1e-17, 1.0 / 3.0, 0.1, 0.7]),
)


@st.composite
def sampling_cases(draw):
    """Users with 0 to 40 sets (past numpy's 8-element pairwise sums), some
    rows pushed just above 1, variables numbered in any order (as after
    incremental patching), and a seed and alpha."""
    lengths = draw(st.lists(st.integers(0, 40), max_size=10))
    num_vars = sum(lengths)
    order = draw(st.permutations(range(num_vars)))
    x_star = np.zeros(num_vars)
    by_user = {}
    assignments = [None] * num_vars
    cursor = 0
    for user_id, length in enumerate(lengths):
        indices = list(order[cursor : cursor + length])
        cursor += length
        by_user[user_id] = indices
        values = np.array(draw(st.lists(_value, min_size=length, max_size=length)))
        if length and draw(st.booleans()):
            # Normalize the row to a total just above 1 (solver noise).
            values = np.abs(values)
            if values.sum() > 0:
                values = values / values.sum() * (1.0 + draw(st.floats(0.0, 1e-6)))
        x_star[indices] = values
        for offset, index in enumerate(indices):
            assignments[index] = (user_id, (user_id, offset))
    alpha = draw(st.sampled_from([1.0, 0.5, 0.25]) | st.floats(0.01, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return BenchmarkLP(LinearProgram(), assignments, by_user, {}), x_star, alpha, seed


class TestVectorizedSampling:
    @settings(max_examples=300, deadline=None)
    @given(sampling_cases())
    def test_matches_scalar_loop(self, case):
        benchmark, x_star, alpha, seed = case
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        sampled = LPPacking(alpha=alpha).sample_sets(benchmark, x_star, rng)
        expected = _scalar_sample_sets(alpha, benchmark, x_star, reference_rng)
        assert list(sampled.items()) == list(expected.items())
        # Same stream consumed: later draws line up too.
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_matches_scalar_loop_on_lp_optima(self, name):
        benchmark = build_benchmark_lp(INSTANCES[name]())
        x_star = solve_lp(benchmark.lp, backend="scipy").x
        for seed in range(3):
            sampled = LPPacking().sample_sets(
                benchmark, x_star, np.random.default_rng(seed)
            )
            expected = _scalar_sample_sets(
                1.0, benchmark, x_star, np.random.default_rng(seed)
            )
            assert list(sampled.items()) == list(expected.items())

    def test_total_is_numpy_sum_where_running_sum_differs(self):
        """A row whose running sum is exactly 1.0 while np.sum's pairwise
        total is 1 ulp above it: only the latter rescales, and a draw just
        below 1 then falls past the row's last running sum."""
        row = [
            0.0022165532785847195, 0.08847013534464465, 0.033466452581209165,
            0.17796863611670014, 0.1644267467080268, 0.1759599835433248,
            0.11060765995988378, 0.09435924119843554, 0.15252459126919055,
        ]
        assert np.cumsum(row)[-1] <= 1.0 < np.sum(row)
        benchmark = BenchmarkLP(
            LinearProgram(),
            [(7, (7, k)) for k in range(len(row))],
            {7: list(range(len(row)))},
            {},
        )
        draw = np.nextafter(1.0, 0.0)
        sampled = LPPacking().sample_sets(
            benchmark, np.array(row), _FixedDraws([draw])
        )
        expected = _scalar_sample_sets(
            1.0, benchmark, np.array(row), _FixedDraws([draw])
        )
        assert sampled == expected

    def test_no_users_with_sets_draws_nothing(self):
        benchmark = BenchmarkLP(LinearProgram(), [], {1: [], 2: []}, {})
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert LPPacking().sample_sets(benchmark, np.empty(0), rng) == {}
        assert rng.bit_generator.state == before
