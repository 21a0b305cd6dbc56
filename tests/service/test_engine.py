"""TickEngine's defrag stage, its LP* oracle and option bounds.

The defrag routine is the one copy of "sweep, then LP step" that
``simulate`` runs to the end and the serving loop steps through; these
tests pin it against the two primitives it is built from.  The oracle is
the benchmark-LP optimum LP*, a hard upper bound on the engine's utility.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ExactILP, lp_upper_bound
from repro.core.admissible import AdmissibleSetExplosion
from repro.core.local_search import improve
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
from repro.service import LPBoundError, PeriodicDefrag, TickEngine


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
