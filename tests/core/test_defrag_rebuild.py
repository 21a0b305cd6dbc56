"""The defrag LP rebuild path, checked against the per-element code it
replaced: the array-built benchmark LP and its hand-off to HiGHS, sampling
over all users at once, and the rank-based repair.  Each reference below is
the earlier implementation, kept here so the fast path stays bit for bit
equal to it."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LPPacking, build_benchmark_lp
from repro.core.lp_formulation import BenchmarkLP
from repro.core.lp_packing import REPAIR_ORDERS
from repro.datagen import (
    MeetupConfig,
    SyntheticConfig,
    generate_meetup,
    generate_synthetic,
    hotspot,
)
from repro.model import Arrangement
from repro.solver import LinearProgram, Sense, solve_lp
from repro.solver.api import _highs, _pass_model
from tests.util import dfs_all_admissible_sets, sum_in_order


def _synthetic(num_users, seed, sharded=False):
    instance = generate_synthetic(SyntheticConfig(num_users=num_users), seed=seed)
    if sharded:
        instance.configure_index(sharded=True)
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
def _object_built(instance, *, implied_upper, integer=False):
    admissible = dfs_all_admissible_sets(instance)
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
    return SimpleNamespace(
        lp=lp, assignments=assignments, by_user=by_user, admissible=admissible
    )


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
    assert built.admissible == reference.admissible


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


class TestOneSummationRule:
    """w(u, S) is added left to right wherever the benchmark LP gets it."""

    def test_sum_in_order_does_not_compensate(self):
        # Compensated summation (builtin sum() from Python 3.12 on) gives 2.0.
        assert sum_in_order([1.0, 1e100, 1.0, -1e100]) == 0.0


# ----------------------------------------------------------------------
# The hand-off to HiGHS: the model HiGHS holds against the program's arrays
# ----------------------------------------------------------------------
def _highs_inputs(program):
    """The model that ``solve_lp(program)`` loads into HiGHS, read back
    with ``getLp`` (a :class:`LinearProgram` reaches HiGHS through
    ``to_arrays``)."""
    if isinstance(program, LinearProgram):
        program = program.to_arrays()
    core = _highs()
    highs = core._Highs()
    assert _pass_model(core, highs, program) == core.HighsStatus.kOk
    lp = highs.getLp()
    matrix = lp.a_matrix_
    assert matrix.format_ == core.MatrixFormat.kColwise
    assert lp.sense_ == core.ObjSense.kMinimize and lp.offset_ == 0.0
    return {
        "shape": np.array([lp.num_row_, lp.num_col_, matrix.num_row_, matrix.num_col_]),
        "col_cost_": np.asarray(lp.col_cost_, dtype=float),
        "col_lower_": np.asarray(lp.col_lower_, dtype=float),
        "col_upper_": np.asarray(lp.col_upper_, dtype=float),
        "row_lower_": np.asarray(lp.row_lower_, dtype=float),
        "row_upper_": np.asarray(lp.row_upper_, dtype=float),
        "start_": np.asarray(matrix.start_, dtype=np.int64),
        "index_": np.asarray(matrix.index_, dtype=np.int64),
        "value_": np.asarray(matrix.value_, dtype=float),
        "integrality_": np.array([int(kind) for kind in lp.integrality_], dtype=np.int64),
    }


def _expected_inputs(program):
    """What HiGHS should hold for ``program``, from its arrays alone: costs
    negated for a maximization (HiGHS minimizes), ``kHighsInf`` for absent
    bounds, each row's bounds by its sense, the matrix column by column
    with each column's rows ascending, and integrality only where a column
    is marked integer."""
    core = _highs()
    inf = core.kHighsInf
    kinds = core.HighsVarType
    m, n = program.num_constraints, program.num_variables
    order = np.lexsort((program.rows, program.cols))
    return {
        "shape": np.array([m, n, m, n]),
        "col_cost_": -program.objective if program.maximize else program.objective,
        "col_lower_": np.where(np.isinf(program.lower), -inf, program.lower),
        "col_upper_": np.where(np.isinf(program.upper), inf, program.upper),
        "row_lower_": np.where(program.senses > 0, -inf, program.rhs),
        "row_upper_": np.where(program.senses < 0, inf, program.rhs),
        "start_": np.searchsorted(program.cols[order], np.arange(n + 1)),
        "index_": program.rows[order].astype(np.int64),
        "value_": program.vals[order],
        "integrality_": np.where(
            program.integer, int(kinds.kInteger), int(kinds.kContinuous)
        ).astype(np.int64),
    }


def _assert_same_inputs(ours, theirs):
    assert ours.keys() == theirs.keys()
    for name, value in ours.items():
        reference = theirs[name]
        assert value.dtype == reference.dtype and value.shape == reference.shape, name
        assert value.tobytes() == reference.tobytes(), name


class TestArrayProgramHandOff:
    """HiGHS holds, bit for bit, the model the program's arrays spell out,
    and the same one whether it is handed the array program or its
    LinearProgram (``benchmark.lp``, equal to the object-built reference
    above)."""

    @pytest.mark.parametrize("implied_upper", [False, True])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_linprog_inputs_bit_identical(self, name, implied_upper):
        benchmark = build_benchmark_lp(INSTANCES[name](), implied_upper=implied_upper)
        ours = _highs_inputs(benchmark.program)
        _assert_same_inputs(ours, _expected_inputs(benchmark.program))
        assert not ours["integrality_"].any()
        _assert_same_inputs(ours, _highs_inputs(benchmark.lp))

    def test_integer_program_inputs_bit_identical(self):
        benchmark = build_benchmark_lp(_synthetic(60, 5), integer=True)
        ours = _highs_inputs(benchmark.program)
        _assert_same_inputs(ours, _expected_inputs(benchmark.program))
        assert ours["integrality_"].size == benchmark.num_columns
        assert np.all(ours["integrality_"] == int(_highs().HighsVarType.kInteger))
        _assert_same_inputs(ours, _highs_inputs(benchmark.lp))

    def test_minimization_with_every_sense_and_free_bounds(self):
        lp = LinearProgram(maximize=False)
        x = lp.add_variable("x", lower=-math.inf, upper=4.0, objective=3.0)
        y = lp.add_variable("y", lower=1.0, upper=math.inf, objective=-5.0)
        z = lp.add_variable("z", lower=0.0, upper=1.0, objective=2.0, is_integer=True)
        lp.add_constraint({x: 1.0, y: 2.0}, Sense.LE, 8.0)
        lp.add_constraint({y: -1.0, z: 3.0}, Sense.GE, -2.0)
        lp.add_constraint({x: 0.5, z: 1.0}, Sense.EQ, 1.5)
        program = lp.to_arrays()
        ours = _highs_inputs(program)
        _assert_same_inputs(ours, _expected_inputs(program))
        assert ours["row_lower_"].tolist() == [-math.inf, -2.0, 1.5]
        assert ours["row_upper_"].tolist() == [8.0, math.inf, 1.5]
        assert ours["integrality_"].tolist() == [0, 0, 1]

    def test_rebuild_path_never_builds_the_linear_program(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the rebuild path built a LinearProgram")

        monkeypatch.setattr(BenchmarkLP, "_build_lp", refuse)
        monkeypatch.setattr(LinearProgram, "add_variables", refuse)
        monkeypatch.setattr(LinearProgram, "add_variable", refuse)
        for name in sorted(INSTANCES):
            instance = INSTANCES[name]()
            for order in REPAIR_ORDERS:
                result = LPPacking(repair_order=order, cache_lp=False).solve(
                    instance, seed=3
                )
                assert result.arrangement.is_feasible()
                assert result.details["lp_backend"] == "scipy-highs"
                assert result.details["num_variables"] > 0


# ----------------------------------------------------------------------
# Sampling, one user at a time (the reference)
# ----------------------------------------------------------------------
def _scalar_sample_sets(alpha, by_user, x_star, rng):
    """Per user (``by_user`` order) with columns, the drawn column."""
    sampled = {}
    for user_id, indices in by_user.items():
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
            sampled[user_id] = indices[offset]
    return sampled


def _column_table(set_upos, num_users):
    """A column-only benchmark: column ``j`` belongs to user position
    ``set_upos[j]`` (ids equal positions) and holds one event."""
    set_upos = np.asarray(set_upos, dtype=np.int64)
    return BenchmarkLP(
        name="",
        user_ids=np.arange(num_users, dtype=np.int64),
        event_ids=np.zeros(1, dtype=np.int64),
        set_upos=set_upos,
        set_indptr=np.arange(set_upos.size + 1, dtype=np.int64),
        set_vpos=np.zeros(set_upos.size, dtype=np.int64),
        # Sampling reads only the column table; nothing solves it.
        program=None,
    )


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
    rows pushed just above 1, columns in user ranges or spread in any
    order (as after incremental patching), and a seed and alpha."""
    lengths = draw(st.lists(st.integers(0, 40), max_size=10))
    num_vars = sum(lengths)
    if draw(st.booleans()):
        order = draw(st.permutations(range(num_vars)))
    else:
        order = list(range(num_vars))
    x_star = np.zeros(num_vars)
    set_upos = np.zeros(num_vars, dtype=np.int64)
    by_user = {}
    cursor = 0
    for user_id, length in enumerate(lengths):
        # A user's sets are the user's columns in ascending order.
        indices = sorted(order[cursor : cursor + length])
        cursor += length
        by_user[user_id] = indices
        set_upos[indices] = user_id
        values = np.array(draw(st.lists(_value, min_size=length, max_size=length)))
        if length and draw(st.booleans()):
            # Normalize the row to a total just above 1 (solver noise).
            values = np.abs(values)
            if values.sum() > 0:
                values = values / values.sum() * (1.0 + draw(st.floats(0.0, 1e-6)))
        x_star[indices] = values
    alpha = draw(st.sampled_from([1.0, 0.5, 0.25]) | st.floats(0.01, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return _column_table(set_upos, len(lengths)), by_user, x_star, alpha, seed


class TestVectorizedSampling:
    @settings(max_examples=300, deadline=None)
    @given(sampling_cases())
    def test_matches_scalar_loop(self, case):
        benchmark, by_user, x_star, alpha, seed = case
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        sampled = LPPacking(alpha=alpha).sample_sets(benchmark, x_star, rng)
        expected = _scalar_sample_sets(alpha, by_user, x_star, reference_rng)
        assert sampled.tolist() == list(expected.values())
        assert benchmark.set_upos[sampled].tolist() == list(expected)
        # Same stream consumed: later draws line up too.
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_matches_scalar_loop_on_lp_optima(self, name):
        benchmark = build_benchmark_lp(INSTANCES[name]())
        reference = _object_built(INSTANCES[name](), implied_upper=False)
        x_star = solve_lp(benchmark.program).x
        for seed in range(3):
            sampled = LPPacking().sample_sets(
                benchmark, x_star, np.random.default_rng(seed)
            )
            expected = _scalar_sample_sets(
                1.0, reference.by_user, x_star, np.random.default_rng(seed)
            )
            assert sampled.tolist() == list(expected.values())

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
        benchmark = _column_table([7] * len(row), 8)
        draw = np.nextafter(1.0, 0.0)
        sampled = LPPacking().sample_sets(
            benchmark, np.array(row), _FixedDraws([draw])
        )
        expected = _scalar_sample_sets(
            1.0, {7: list(range(len(row)))}, np.array(row), _FixedDraws([draw])
        )
        assert sampled.tolist() == list(expected.values())

    def test_no_users_with_sets_draws_nothing(self):
        benchmark = _column_table([], 2)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert LPPacking().sample_sets(benchmark, np.empty(0), rng).size == 0
        assert rng.bit_generator.state == before


# ----------------------------------------------------------------------
# Repair, one pair at a time (the reference)
# ----------------------------------------------------------------------
def _scan_repair(order, instance, sampled, rng):
    """The earlier repair: pair tuples, sorted or shuffled, scanned against
    the remaining capacities; ``sampled`` maps user id -> event ids."""
    index = instance.index
    pairs = []
    for user_id, events in sampled.items():
        pairs.extend((event_id, user_id) for event_id in sorted(events))
    if order == "random":
        rng.shuffle(pairs)
    elif order == "user":
        pairs.sort(key=lambda p: (index.user_pos[p[1]], p[0]))
    else:
        pairs.sort(
            key=lambda p: (-instance.weight(p[1], p[0]), index.user_pos[p[1]], p[0])
        )
    remaining = {e.event_id: e.capacity for e in instance.events}
    survivors = []
    for event_id, user_id in pairs:
        if remaining[event_id] > 0:
            remaining[event_id] -= 1
            survivors.append((event_id, user_id))
    return survivors


class TestArrayRepair:
    @pytest.mark.parametrize("order", REPAIR_ORDERS)
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_matches_scan_and_checked_build(self, name, order):
        instance = INSTANCES[name]()
        index = instance.index
        algorithm = LPPacking(repair_order=order)
        benchmark = build_benchmark_lp(instance)
        x_star = solve_lp(benchmark.program).x
        assignments = benchmark.assignments
        for seed in range(3):
            chosen = algorithm.sample_sets(
                benchmark, x_star, np.random.default_rng(seed)
            )
            sampled = dict(assignments[k] for k in chosen.tolist())
            rng = np.random.default_rng(seed + 10)
            reference_rng = np.random.default_rng(seed + 10)
            upos, vpos = algorithm.repair(instance, benchmark, chosen, rng)
            expected = _scan_repair(order, instance, sampled, reference_rng)
            pairs = list(
                zip(index.event_ids[vpos].tolist(), index.user_ids[upos].tolist())
            )
            assert pairs == expected
            assert rng.bit_generator.state == reference_rng.bit_generator.state
            arrangement = Arrangement.from_positions(instance, upos, vpos)
            assert arrangement.is_feasible()
            checked = Arrangement.from_pairs(instance, expected, check=True)
            assert arrangement.pairs == checked.pairs
            assert len(arrangement) == len(checked)

    def test_overfull_events_keep_their_first_pairs(self):
        """Every user draws their first set, so events are oversubscribed
        and the rank cut decides which pairs survive."""
        instance = _synthetic(300, 11)
        benchmark = build_benchmark_lp(instance)
        starts = np.r_[True, benchmark.set_upos[1:] != benchmark.set_upos[:-1]]
        columns = np.flatnonzero(starts)
        sampled = dict(benchmark.assignments[k] for k in columns.tolist())
        for order in REPAIR_ORDERS:
            algorithm = LPPacking(repair_order=order)
            upos, vpos = algorithm.repair(
                instance, benchmark, columns, np.random.default_rng(1)
            )
            expected = _scan_repair(order, instance, sampled, np.random.default_rng(1))
            index = instance.index
            assert list(
                zip(index.event_ids[vpos].tolist(), index.user_ids[upos].tolist())
            ) == expected
            assert len(expected) < sum(map(len, sampled.values()))
