"""TickEngine's defrag stage and option bounds.

The defrag routine is the one copy of "sweep, then LP step" that
``simulate`` runs to the end and the serving loop steps through; these
tests pin it against the two primitives it is built from.
"""

import pytest

from repro.core.local_search import improve
from repro.core.online import OnlineRandom
from repro.datagen import (
    ChurnConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
)
from repro.service import TickEngine


def churned_engine(seed=0):
    """An engine one churn batch in, before repair: a random online
    bootstrap leaves a defrag several passes of work."""
    instance = generate_synthetic(
        SyntheticConfig(num_users=60, num_events=12), seed=seed
    )
    trace = generate_churn_trace(instance, ChurnConfig(num_batches=1), seed=seed + 1)
    engine = TickEngine(trace.initial, OnlineRandom(), seed=seed)
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
