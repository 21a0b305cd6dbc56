"""TickEngine's repair and defrag stages, its LP* oracle and option bounds.

``optimize_steps`` is the one copy of the tick's repair → defrag order that
``simulate`` runs to the end and the serving loop steps through.  A defrag
tick of a schedule that decides before repair is the LP step alone, with
repair and the sweep as the fallback when the LP is not adopted; every
other defrag is "repair, sweep, then LP step" (``defrag_steps``), pinned
here against the two primitives it is built from.  The oracle is the
benchmark-LP optimum LP*, a hard upper bound on the engine's utility.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ExactILP, lp_upper_bound
from repro.core.admissible import AdmissibleSetExplosion
from repro.core.local_search import improve
from repro.core.lp_packing import LPPacking, LPPackingError
from repro.core.online import OnlineGreedy, OnlineRandom
from repro.datagen import (
    INTEGRALITY_GAP_SEEDS,
    ChurnConfig,
    ChurnTrace,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
    integrality_gap_instance,
    small_tight_instance,
)
from repro.experiments.simulate import simulate
from repro.model import Arrangement, Delta, apply_delta
from repro.service import LPBoundError, PeriodicDefrag, RetentionDefrag, TickEngine


def churned_engine(seed=0, **options):
    """An engine one churn batch in, before repair: a random online
    bootstrap leaves a defrag several passes of work."""
    instance = generate_synthetic(
        SyntheticConfig(num_users=60, num_events=12), seed=seed
    )
    trace = generate_churn_trace(instance, ChurnConfig(num_batches=1), seed=seed + 1)
    engine = TickEngine(trace.initial, OnlineRandom(), seed=seed, **options)
    engine.bootstrap()
    return engine, engine.apply_churn(trace.deltas[0])


class TestDefragSteps:
    def test_run_to_end_is_improve_then_adopt_lp(self):
        engine, result = churned_engine()
        moves, utility = engine.defragment(result, 0)

        twin, twin_result = churned_engine()
        copy = twin.arrangement.copy()
        twin.arrangement = copy
        twin_moves = improve(twin_result.instance, copy, max_passes=twin.max_passes)
        twin_utility = twin.adopt_lp(twin_result, 0, twin_moves, copy.utility())

        assert moves["passes"] > 3  # the stop test below needs the room
        assert moves == twin_moves
        assert utility == twin_utility
        assert engine.arrangement.pairs == twin.arrangement.pairs
        assert result.arrangement is engine.arrangement

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stopped_after_pass_k(self, k):
        engine, result = churned_engine()
        steps = engine.defrag_steps(result, 0)
        next(steps)
        for _ in range(k - 1):
            steps.send(False)
        with pytest.raises(StopIteration) as done:
            steps.send(True)
        moves, utility = done.value.value

        assert moves["passes"] == k
        assert "lp_utility" not in moves and "lp_adopted" not in moves
        assert engine.arrangement.is_feasible()
        assert utility == engine.arrangement.utility()
        assert result.arrangement is engine.arrangement

    def test_stopped_defrag_still_charges_switching(self):
        engine, result = churned_engine()
        engine.switching_penalty = 0.5
        served = list(engine.instance.user_by_id)
        before = engine.assignment_snapshot(served)
        steps = engine.defrag_steps(result, 0, served_users=served)
        next(steps)
        with pytest.raises(StopIteration) as done:
            steps.send(True)
        moves, _utility = done.value.value

        pairs = engine.switching_pairs(before)
        assert pairs > 0
        assert moves["switching_pairs"] == pairs
        assert moves["switching_spend"] == 0.5 * pairs
        assert engine.switching_pairs_total == pairs


class TestOptionBounds:
    def test_negative_oracle_every_rejected(self):
        engine, _result = churned_engine()
        with pytest.raises(ValueError, match="oracle_every"):
            TickEngine(engine.instance, oracle_every=-1)


def count_lp_solves(monkeypatch):
    """Count every benchmark-LP solve (cache hits excluded)."""
    import repro.core.lp_packing as module

    calls = []
    original = module.solve_lp

    def counted(program, **kwargs):
        calls.append(program)
        return original(program, **kwargs)

    monkeypatch.setattr(module, "solve_lp", counted)
    return calls


class TestOracle:
    def test_oracle_is_lp_star_and_no_second_solver(self):
        engine, result = churned_engine()
        engine.repair(result)
        bound = engine.oracle_solve(0)
        assert bound == pytest.approx(lp_upper_bound(engine.instance), rel=1e-9)
        assert engine.oracle_reference == bound
        assert engine.repair_debt(engine.utility()) == max(
            0.0, bound - engine.utility()
        )
        assert not hasattr(engine, "oracle")

    def test_defrag_tick_reads_lp_star_from_the_cache(self, monkeypatch):
        engine, result = churned_engine()
        engine.repair(result)
        solves = count_lp_solves(monkeypatch)
        engine.defragment(result, 0)
        assert len(solves) == 1
        bound = engine.oracle_solve(0)
        assert len(solves) == 1
        assert bound == pytest.approx(lp_upper_bound(engine.instance), rel=1e-9)

    def test_without_defrag_lp_the_oracle_still_solves(self, monkeypatch):
        engine, result = churned_engine(defrag_lp=False)
        engine.repair(result)
        solves = count_lp_solves(monkeypatch)
        moves, _utility = engine.defragment(result, 0)
        assert "lp_utility" not in moves and not solves
        engine.oracle_solve(0)
        assert len(solves) == 1
        engine.oracle_solve(0)  # the same instance again: cached
        assert len(solves) == 1

    def test_oracle_raises_where_the_lp_cannot_be_built(self):
        """The set-explosion guard fails the oracle as it fails the defrag
        LP; no heuristic stands in for LP*."""
        engine, result = churned_engine()
        engine.lp_resolver.max_sets_per_user = 1
        with pytest.raises(AdmissibleSetExplosion):
            engine.oracle_solve(0)
        with pytest.raises(AdmissibleSetExplosion):
            engine.defragment(result, 0)

    def test_utility_above_lp_star_raises(self, monkeypatch):
        engine, result = churned_engine()
        engine.repair(result)
        bound = lp_upper_bound(engine.instance)
        monkeypatch.setattr(Arrangement, "utility", lambda self: bound * 1.001)
        with pytest.raises(LPBoundError, match="tick 3"):
            engine.oracle_solve(3)


def test_injected_objective_bug_trips_the_bound(monkeypatch):
    """Doubling one w(u, v) in the arrangement's utility alone (the LP keeps
    the true weights) must fail the run, not pass as retention > 1."""
    instance = generate_synthetic(
        SyntheticConfig(num_users=60, num_events=12), seed=0
    )
    trace = generate_churn_trace(instance, ChurnConfig(num_batches=3), seed=1)
    original = Arrangement.utility

    def doubled(self):
        upos, vpos = self.assigned_positions()
        return original(self) + float(self._idx.pair_weights(upos[:1], vpos[:1]).sum())

    monkeypatch.setattr(Arrangement, "utility", doubled)
    with pytest.raises(LPBoundError, match="exceeds the benchmark-LP optimum"):
        simulate(
            trace, OnlineGreedy(), seed=0, defrag=PeriodicDefrag(1), oracle_every=1
        )


@st.composite
def tight_traces(draw):
    """A churn trace over a tight adversarial instance, where the benchmark
    LP can be fractional and the defrag LP has to round."""
    if draw(st.booleans()):
        rank = draw(st.integers(0, len(INTEGRALITY_GAP_SEEDS) - 1))
        instance = integrality_gap_instance(rank)
    else:
        instance = small_tight_instance(draw(st.integers(0, 500)))
    config = ChurnConfig(
        num_batches=3,
        user_arrival_rate=1.0,
        user_departure_rate=1.0,
        rebid_rate=1.0,
        event_open_rate=0.5,
        event_close_rate=0.5,
        conflict_toggle_rate=1.0,
        capacity_shock_rate=1.0,
        base=SyntheticConfig(
            num_events=5,
            num_users=8,
            max_event_capacity=2,
            max_user_capacity=3,
            conflict_probability=0.5,
            max_bids=5,
        ),
    )
    trace = generate_churn_trace(instance, config, seed=draw(st.integers(0, 2**16)))
    # Churn tends to close the gap; an empty first batch makes tick 0
    # defragment (and round) the tight instance itself.
    return ChurnTrace(trace.initial, [Delta(), *trace.deltas])


def count_stage_calls(monkeypatch):
    """Count the engine's targeted-repair and sweep calls by name."""
    import repro.service.engine as module

    calls = []
    for name in ("targeted_repair", "iter_passes"):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestLPFirstTick:
    """A periodic defrag tick with the LP step on is the LP alone."""

    def test_adopted_lp_runs_no_repair_and_no_sweep(self, monkeypatch):
        engine, result = churned_engine(defrag=PeriodicDefrag(1))
        stages = count_stage_calls(monkeypatch)
        solves = count_lp_solves(monkeypatch)
        repair_moves, moves, utility = engine.optimize(result, 0)

        assert repair_moves is None
        assert moves["lp_adopted"] and moves["passes"] == 0
        assert stages == [] and len(solves) == 1
        assert utility == moves["lp_utility"] == engine.utility()
        assert engine.arrangement.is_feasible()
        assert result.arrangement is engine.arrangement
        assert utility <= lp_upper_bound(engine.instance) * (1 + 1e-9)

    def test_oracle_on_the_tick_is_a_cache_hit(self, monkeypatch):
        engine, result = churned_engine(defrag=PeriodicDefrag(1))
        solves = count_lp_solves(monkeypatch)
        engine.optimize(result, 0)
        bound = engine.oracle_solve(0)
        assert len(solves) == 1
        assert bound == pytest.approx(lp_upper_bound(engine.instance), rel=1e-9)

    def test_off_tick_is_the_repair_alone(self, monkeypatch):
        engine, result = churned_engine(defrag=PeriodicDefrag(2))
        stages = count_stage_calls(monkeypatch)
        solves = count_lp_solves(monkeypatch)
        repair_moves, moves, utility = engine.optimize(result, 0)
        assert moves is None and repair_moves is not None
        assert stages == ["targeted_repair"]
        assert not solves and utility == engine.utility()

    def test_blocked_adoption_falls_back_to_repair_and_sweep(self, monkeypatch):
        """A switching penalty that outweighs the LP's gain: repair and the
        sweep run once each, the LP is not solved again, and the spend is
        charged against the post-repair assignments, as a repair-first
        defrag charges it."""
        penalty = 1e6
        engine, result = churned_engine(
            defrag=PeriodicDefrag(1), switching_penalty=penalty
        )
        served = list(engine.instance.user_by_id)
        twin, twin_result = churned_engine(switching_penalty=penalty)
        stages = count_stage_calls(monkeypatch)
        solves = count_lp_solves(monkeypatch)
        steps = engine.optimize_steps(result, 0, served_users=served)
        repair_moves, moves, utility = _finish(steps)

        assert not moves["lp_adopted"] and "lp_utility" in moves
        assert stages == ["targeted_repair", "iter_passes"]
        assert len(solves) == 1
        assert repair_moves is not None and moves["passes"] > 0

        # The twin repairs, snapshots and sweeps by hand.
        monkeypatch.undo()
        pre_repair = twin.assignment_snapshot(served)
        twin_repair = twin.repair(twin_result)
        before = twin.assignment_snapshot(served)
        sweep = improve(
            twin_result.instance, twin.arrangement, max_passes=twin.max_passes
        )
        pairs = twin.switching_pairs(before)
        # Repair re-seats served users, so the snapshot's timing shows.
        assert twin.switching_pairs(pre_repair) > pairs
        assert repair_moves == twin_repair
        assert {key: moves[key] for key in sweep} == sweep
        assert engine.arrangement.pairs == twin.arrangement.pairs
        assert moves["switching_pairs"] == pairs == engine.switching_pairs_total
        assert moves["switching_spend"] == penalty * pairs
        assert utility == engine.utility() and engine.arrangement.is_feasible()

    def test_failed_lp_falls_back_to_repair_and_sweep(self, monkeypatch):
        def failing(self, instance, seed=None):
            raise LPPackingError("injected")

        monkeypatch.setattr(LPPacking, "solve", failing)
        engine, result = churned_engine(defrag=PeriodicDefrag(1))
        before = engine.arrangement.utility()
        repair_moves, moves, utility = engine.optimize(result, 0)
        assert moves["lp_failed"] and not moves["lp_adopted"]
        assert "lp_utility" not in moves
        assert repair_moves is not None and moves["passes"] > 0
        assert engine.arrangement.is_feasible()
        assert utility == engine.utility() >= before

    def test_fallback_sweep_is_bounded_by_the_solved_lp(self, monkeypatch):
        engine, result = churned_engine(
            defrag=PeriodicDefrag(1), switching_penalty=1e6
        )
        bound = lp_upper_bound(engine.instance)
        repair = engine.repair

        def repair_then_inflate(result):
            moves = repair(result)
            monkeypatch.setattr(Arrangement, "utility", lambda self: bound * 1.001)
            return moves

        monkeypatch.setattr(engine, "repair", repair_then_inflate)
        served = list(engine.instance.user_by_id)
        with pytest.raises(LPBoundError, match="swept"):
            _finish(engine.optimize_steps(result, 0, served_users=served))

    def test_lp_bound_violation_stays_fatal(self, monkeypatch):
        engine, result = churned_engine(defrag=PeriodicDefrag(1))
        bound = lp_upper_bound(engine.instance)
        monkeypatch.setattr(Arrangement, "utility", lambda self: bound * 1.001)
        with pytest.raises(LPBoundError, match="pre-LP"):
            engine.optimize(result, 0)


class TestRepairFirstTick:
    """Schedules that read the repaired utility, and defrags without the
    LP step, keep repair → sweep → LP."""

    def _order(self, engine, monkeypatch):
        order = []
        for name in ("repair", "iter_defrag_passes", "adopt_lp"):
            original = getattr(engine, name)

            def traced(*args, _name=name, _original=original, **kwargs):
                order.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(engine, name, traced)
        return order

    def test_retention_schedule(self, monkeypatch):
        engine, result = churned_engine(defrag=RetentionDefrag(0.95))
        engine.oracle_reference = 10.0 * lp_upper_bound(engine.instance)
        order = self._order(engine, monkeypatch)
        solves = count_lp_solves(monkeypatch)
        repair_moves, moves, _utility = engine.optimize(result, 0)
        assert order == ["repair", "iter_defrag_passes", "adopt_lp"]
        assert repair_moves is not None and "lp_adopted" in moves
        assert len(solves) == 1

    def test_without_the_lp_step(self, monkeypatch):
        engine, result = churned_engine(defrag=PeriodicDefrag(1), defrag_lp=False)
        order = self._order(engine, monkeypatch)
        solves = count_lp_solves(monkeypatch)
        repair_moves, moves, _utility = engine.optimize(result, 0)
        assert order == ["repair", "iter_defrag_passes", "adopt_lp"]
        assert repair_moves is not None and "lp_adopted" not in moves
        assert moves["passes"] > 0 and not solves

    def test_schedules_declare_whether_they_read_utility(self):
        from repro.service import DefragSchedule

        assert not PeriodicDefrag.reads_utility
        assert RetentionDefrag.reads_utility
        assert DefragSchedule.reads_utility  # the safe default for subclasses


def _finish(steps):
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value


class TestLPStarBoundsTheEngine:
    @given(tight_traces(), st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_lp_star_bounds_exact_bounds_engine(self, trace, seed):
        report = simulate(
            trace, OnlineGreedy(), seed=seed, defrag=PeriodicDefrag(1), oracle_every=1
        )
        instance = trace.initial
        for record, delta in zip(report.records, trace.deltas):
            instance = apply_delta(instance, delta).instance
            bound = lp_upper_bound(instance)
            optimum = ExactILP().solve(instance).utility
            assert record.oracle_utility == pytest.approx(bound, rel=1e-9, abs=1e-12)
            assert bound >= optimum - 1e-6
            assert optimum >= record.utility - 1e-9
