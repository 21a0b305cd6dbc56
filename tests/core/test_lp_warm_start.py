"""The defrag LP's warm start: the basis of the vertex that encodes a
feasible arrangement (``BenchmarkLP.start_basis``), handed to HiGHS by
``solve_lp(..., start=...)`` and, through ``LPPacking.start_from``, on
every rebuild of the benchmark LP across churn."""

import numpy as np
import pytest

from repro.core import LPPacking, build_benchmark_lp
from repro.core.local_search import improve
from repro.core.online import OnlineGreedy
from repro.core.repair import repair
from repro.datagen import ChurnConfig, generate_churn_trace
from repro.datagen.adversarial import integrality_gap_instance, small_tight_instance
from repro.model import Arrangement
from repro.model.delta import Delta, apply_delta
from repro.solver import solve_lp
from repro.solver.problem import StartBasis
from tests.core.test_defrag_rebuild import INSTANCES, _synthetic

WARM_INSTANCES = {
    **INSTANCES,
    "small-tight-s3": lambda: small_tight_instance(3),
    "integrality-gap": integrality_gap_instance,
}


def _swept(instance, seed=0):
    """An online arrangement after a local-search sweep, as defrag leaves
    it before its LP step."""
    arrangement = OnlineGreedy().solve(instance, seed=seed).arrangement
    improve(instance, arrangement)
    return arrangement


def _assert_feasible(program, x, tol=1e-9):
    assert np.all(x >= program.lower - tol) and np.all(x <= program.upper + tol)
    activity = np.zeros(program.num_constraints)
    np.add.at(activity, program.rows, program.vals * x[program.cols])
    assert np.all(activity <= program.rhs + tol)


class TestStartBasis:
    @pytest.mark.parametrize("name", sorted(WARM_INSTANCES))
    def test_basic_columns_decode_to_the_arrangement(self, name):
        instance = WARM_INSTANCES[name]()
        arrangement = _swept(instance)
        benchmark = build_benchmark_lp(instance)
        start = benchmark.start_basis(arrangement)
        assert start is not None
        upos, vpos = benchmark.column_pairs(np.flatnonzero(start.basic_columns))
        order = np.lexsort((vpos, upos))
        expected_upos, expected_vpos = arrangement.assigned_positions()
        assert np.array_equal(upos[order], expected_upos)
        assert np.array_equal(vpos[order], expected_vpos)
        # Square: one basic variable per row.  The nonbasic rows are the
        # (2) rows of exactly the assigned users.
        program = benchmark.program
        assert start.basic_rows.shape == (program.num_constraints,)
        assert start.basic_columns.sum() + start.basic_rows.sum() == (
            program.num_constraints
        )
        assigned_users = np.unique(expected_upos)
        user_rows = np.flatnonzero(np.bincount(benchmark.set_upos))
        assert np.array_equal(
            np.flatnonzero(~start.basic_rows),
            np.searchsorted(user_rows, assigned_users),
        )

    def test_empty_arrangement_is_the_slack_basis(self):
        instance = _synthetic(60, 0)
        benchmark = build_benchmark_lp(instance)
        start = benchmark.start_basis(Arrangement(instance))
        assert not start.basic_columns.any() and start.basic_rows.all()

    def test_arrangement_of_another_instance_gives_no_start(self):
        benchmark = build_benchmark_lp(_synthetic(60, 0))
        assert benchmark.start_basis(_swept(_synthetic(80, 1))) is None

    def test_a_set_missing_from_the_table_gives_no_start(self):
        instance = _synthetic(60, 0)
        arrangement = _swept(instance)
        benchmark = build_benchmark_lp(instance)
        # Drop the column of one assigned user's set.
        upos, _ = arrangement.assigned_positions()
        column = np.flatnonzero(benchmark.start_basis(arrangement).basic_columns)[0]
        keep = np.arange(benchmark.num_columns) != column
        sizes = np.diff(benchmark.set_indptr)
        members = np.repeat(keep, sizes)
        trimmed = type(benchmark)(
            name=benchmark.name,
            user_ids=benchmark.user_ids,
            event_ids=benchmark.event_ids,
            set_upos=benchmark.set_upos[keep],
            set_indptr=np.concatenate([[0], np.cumsum(sizes[keep])]),
            set_vpos=benchmark.set_vpos[members],
            program=benchmark.program,
        )
        assert upos.size
        assert trimmed.start_basis(arrangement) is None


class TestWarmSolve:
    @pytest.mark.parametrize("name", sorted(WARM_INSTANCES))
    def test_warm_solve_reaches_the_cold_optimum(self, name):
        instance = WARM_INSTANCES[name]()
        benchmark = build_benchmark_lp(instance)
        cold = solve_lp(benchmark.program)
        warm = solve_lp(
            benchmark.program, start=benchmark.start_basis(_swept(instance))
        )
        assert cold.start == "cold" and warm.start == "warm"
        assert warm.is_optimal
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
        _assert_feasible(benchmark.program, warm.x)

    def test_a_start_highs_refuses_is_reported_and_solved_cold(self):
        benchmark = build_benchmark_lp(_synthetic(60, 0))
        program = benchmark.program
        # Every column and every row basic: not a basis.
        refused = StartBasis(
            basic_columns=np.ones(program.num_variables, dtype=bool),
            basic_rows=np.ones(program.num_constraints, dtype=bool),
        )
        solution = solve_lp(program, start=refused)
        assert solution.start == "rejected"
        assert solution.objective_value == solve_lp(program).objective_value

    def test_integer_programs_ignore_the_start(self):
        instance = integrality_gap_instance()
        arrangement = _swept(instance)
        benchmark = build_benchmark_lp(instance, integer=True)
        solution = solve_lp(
            benchmark.program, start=benchmark.start_basis(arrangement)
        )
        assert solution.is_optimal and solution.start == "cold"


class TestLPPackingStart:
    @pytest.mark.parametrize("name", sorted(WARM_INSTANCES))
    def test_start_from_warms_the_next_rebuild(self, name):
        instance = WARM_INSTANCES[name]()
        cold = LPPacking(cache_lp=False).solve(instance, seed=3)
        resolver = LPPacking(cache_lp=False)
        resolver.start_from(_swept(instance))
        warm = resolver.solve(instance, seed=3)
        assert cold.details["lp_start"] == "cold"
        assert warm.details["lp_start"] == "warm"
        assert warm.details["lp_objective"] == pytest.approx(
            cold.details["lp_objective"], abs=1e-9
        )
        # The hint is spent: the next solve is cold.
        assert resolver.solve(instance, seed=3).details["lp_start"] == "cold"

    def test_hint_for_another_instance_is_ignored(self):
        resolver = LPPacking(cache_lp=False)
        resolver.start_from(_swept(_synthetic(60, 0)))
        other = _synthetic(60, 1)
        assert resolver.solve(other, seed=0).details["lp_start"] == "cold"

    def test_cached_solve_is_not_warm(self):
        instance = _synthetic(60, 0)
        resolver = LPPacking()
        resolver.solve(instance, seed=0)
        resolver.start_from(_swept(instance))
        cached = resolver.solve(instance, seed=1)
        assert cached.details["lp_backend"] == "cache"
        assert cached.details["lp_start"] == "cold"


def _capacity_shock(instance):
    """A batch that only re-sets event capacities: every other event's
    shrinks by one (to at least 1), which sheds carried pairs."""
    return Delta(
        set_event_capacity=tuple(
            (event.event_id, max(1, int(event.capacity) - 1))
            for event in instance.events[::2]
        )
    )


def _churned(instance, seed):
    """``instance`` after two churn batches."""
    trace = generate_churn_trace(instance, ChurnConfig(num_batches=2), seed=seed)
    current = instance
    for delta in trace.deltas:
        current = apply_delta(current, delta).instance
    return current


class TestWarmRebuild:
    """Across churn, every rebuild of the benchmark LP
    (``LPPacking(cache_lp=False)``) takes the post-sweep hint."""

    def test_every_rebuild_is_warm_across_churn(self):
        instance = _synthetic(80, 6)
        trace = generate_churn_trace(
            instance,
            ChurnConfig(num_batches=4, event_close_rate=2.0, event_open_rate=2.0),
            seed=31,
        )
        assert all(delta.remove_users for delta in trace.deltas)
        assert any(delta.remove_events for delta in trace.deltas)
        resolver = LPPacking(cache_lp=False)
        arrangement = _swept(instance)
        resolver.start_from(arrangement)
        starts = [resolver.solve(instance, seed=0).details["lp_start"]]
        current = instance
        deltas = list(trace.deltas)
        for step in range(len(deltas) + 1):
            # The trace's batches, then a capacity shock on what they left.
            delta = deltas[step] if step < len(deltas) else _capacity_shock(current)
            result = apply_delta(current, delta, arrangement)
            # What defrag hands the LP: the carried arrangement, repaired
            # around the churn and then swept.
            repair(result)
            improve(result.instance, result.arrangement)
            current, arrangement = result.instance, result.arrangement
            assert arrangement.is_feasible()
            resolver.start_from(arrangement)
            solved = resolver.solve(current, seed=step + 1)
            starts.append(solved.details["lp_start"])
            cold = solve_lp(build_benchmark_lp(current).program)
            assert cold.start == "cold"
            assert solved.details["lp_objective"] == pytest.approx(
                cold.objective_value, abs=1e-6
            )
        assert starts == ["warm"] * len(starts)

    def test_a_set_missing_from_the_rebuilt_table_solves_cold(self):
        current = _churned(_synthetic(60, 0), seed=4)
        # A user seated at every event they bid on, over their capacity or
        # across a conflict: no admissible set, so no column, matches it.
        index = current.index
        for user in current.users:
            upos = index.user_pos[user.user_id]
            vpos = [index.event_pos[event_id] for event_id in user.bids]
            hint = Arrangement.from_positions(current, [upos] * len(vpos), vpos)
            if not hint.is_feasible():
                break
        else:
            pytest.fail("every user's whole bid set is admissible")
        assert build_benchmark_lp(current).start_basis(hint) is None
        resolver = LPPacking(cache_lp=False)
        resolver.start_from(hint)
        assert resolver.solve(current, seed=1).details["lp_start"] == "cold"


def test_simulate_tick_records_carry_no_start():
    """The start is solver telemetry, not a decision: simulate's records
    (compared across checkouts for determinism) do not name it."""
    import json

    from repro.datagen import ChurnConfig, generate_churn_trace
    from repro.experiments.simulate import simulate
    from repro.service import PeriodicDefrag

    instance = _synthetic(60, 0)
    trace = generate_churn_trace(instance, ChurnConfig(num_batches=3), seed=1)
    report = json.dumps(simulate(trace, seed=0, defrag=PeriodicDefrag(1)).to_dict())
    assert "lp_start" not in report and "lp_iterations" not in report
