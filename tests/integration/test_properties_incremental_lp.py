"""Property suite for the incrementally maintained benchmark LP.

Across generated churn traces, the delta-patched LP
(:class:`~repro.core.lp_incremental.IncrementalBenchmarkLP`) must stay a
faithful image of the from-scratch build on every successor: identical
optima to 1e-6 and consistent decode tables; a pure capacity-shock batch
is an RHS-only patch that leaves the program's shape alone.  The patched
program is solved by HiGHS and checked against ``tests.util.reference_lp``
on a fresh build, which reads the program's row dicts, not its arrays.  The same contract is asserted
one layer up
(``LPPacking(incremental=True)``) and at the engine seam
(``TickEngine(defrag_lp_incremental=True)``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lp_formulation import build_benchmark_lp
from repro.core.lp_incremental import IncrementalBenchmarkLP
from repro.core.lp_packing import LPPacking
from repro.datagen import (
    ChurnConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
)
from repro.model.delta import Delta, apply_delta
from repro.service.defrag import PeriodicDefrag
from repro.service.engine import TickEngine
from repro.solver import SolveStatus
from tests.util import reference_lp

TOLERANCE = 1e-6


def _reference_objective(instance) -> float:
    status, objective = reference_lp(
        build_benchmark_lp(instance, implied_upper=True).lp
    )
    assert status is SolveStatus.OPTIMAL
    return objective


@pytest.mark.parametrize(
    "seed,sharded",
    [(0, False), (1, False), (2, True)],
)
def test_patched_optima_match_from_scratch_across_churn(seed, sharded):
    instance = generate_synthetic(
        SyntheticConfig(num_users=60, num_events=14), seed=seed
    )
    if sharded:
        instance.configure_index(sharded=True, shard_size=16)
    trace = generate_churn_trace(
        instance, ChurnConfig(num_batches=5), seed=seed + 100
    )
    incremental = IncrementalBenchmarkLP(instance)
    first = incremental.solve()
    assert first.is_optimal
    assert first.objective_value == pytest.approx(
        _reference_objective(instance), abs=TOLERANCE
    )

    current = instance
    for delta in trace.deltas:
        successor = apply_delta(current, delta).instance
        incremental.observe_delta(delta, successor)
        incremental.check_tables()
        patched = incremental.solve()
        assert patched.is_optimal
        assert patched.objective_value == pytest.approx(
            _reference_objective(successor), abs=TOLERANCE
        )
        current = successor
    assert incremental.deltas_observed == len(trace.deltas)


def test_capacity_shocks_are_rhs_only_patches():
    instance = generate_synthetic(
        SyntheticConfig(num_users=80, num_events=16), seed=3
    )
    incremental = IncrementalBenchmarkLP(instance)
    assert incremental.solve().is_optimal

    # Shock only events that actually hold columns, so every batch is a
    # pure RHS patch on live rows.
    live_events = sorted(
        {
            event_id
            for sets in incremental.benchmark.admissible.values()
            for events in sets
            for event_id in events
        }
    )
    assert live_events
    rng = np.random.default_rng(11)
    current = instance
    for _ in range(5):
        picks = rng.choice(live_events, size=min(4, len(live_events)), replace=False)
        capacity_by_id = {
            event.event_id: int(event.capacity) for event in current.events
        }
        updates = tuple(
            (int(event_id), max(1, capacity_by_id[int(event_id)] + int(shift)))
            for event_id, shift in zip(picks, rng.integers(-2, 3, size=picks.size))
        )
        delta = Delta(set_event_capacity=updates)
        successor = apply_delta(current, delta).instance
        lp = incremental.benchmark.lp
        shape = (lp.num_variables, lp.num_constraints)
        patch = incremental.observe_delta(delta, successor)
        assert patch.rhs_only
        assert (lp.num_variables, lp.num_constraints) == shape
        patched = incremental.solve()
        assert patched.is_optimal
        assert patched.objective_value == pytest.approx(
            _reference_objective(successor), abs=TOLERANCE
        )
        current = successor


def test_lp_packing_incremental_matches_reference_across_churn():
    instance = generate_synthetic(
        SyntheticConfig(num_users=60, num_events=14), seed=7
    )
    trace = generate_churn_trace(instance, ChurnConfig(num_batches=4), seed=13)
    packing = LPPacking(alpha=1.0, incremental=True, seed=3)
    current = instance
    for index, delta in enumerate(trace.deltas):
        solved = packing.solve(current, seed=100 + index)
        assert solved.details["lp_objective"] == pytest.approx(
            _reference_objective(current), abs=TOLERANCE
        )
        successor = apply_delta(current, delta).instance
        packing.observe_delta(delta, successor)
        current = successor
    final = packing.solve(current, seed=999)
    assert final.details["lp_objective"] == pytest.approx(
        _reference_objective(current), abs=TOLERANCE
    )
    assert final.details["lp_backend"] == "scipy-highs"
    packing._incremental_lp.check_tables()


def test_lp_packing_rebases_on_unrelated_instance():
    packing = LPPacking(alpha=1.0, incremental=True, seed=1)
    first = generate_synthetic(
        SyntheticConfig(num_users=40, num_events=10), seed=21
    )
    other = generate_synthetic(
        SyntheticConfig(num_users=30, num_events=8), seed=22
    )
    assert packing.solve(first, seed=5).details["lp_objective"] == pytest.approx(
        _reference_objective(first), abs=TOLERANCE
    )
    # No observe_delta chain onto `other`: the packing must rebase, not
    # serve the stale program.
    assert packing.solve(other, seed=5).details["lp_objective"] == pytest.approx(
        _reference_objective(other), abs=TOLERANCE
    )


def test_engine_keeps_incremental_lp_in_lockstep():
    instance = generate_synthetic(
        SyntheticConfig(num_users=60, num_events=14), seed=5
    )
    trace = generate_churn_trace(instance, ChurnConfig(num_batches=4), seed=9)
    engine = TickEngine(
        instance,
        seed=2,
        defrag=PeriodicDefrag(1),
        defrag_lp_incremental=True,
    )
    engine.bootstrap()
    for tick, delta in enumerate(trace.deltas):
        result = engine.apply_churn(delta)
        engine.serve_arrivals(result, delta)
        moves: dict = {}
        engine.adopt_lp(result, tick, moves, utility=0.0)
        assert "lp_utility" in moves
    resolver = engine.lp_resolver
    assert resolver is not None
    chain = resolver._incremental_lp
    assert chain is not None
    assert chain.instance is engine.instance
    chain.check_tables()
    patched = chain.solve()
    assert patched.objective_value == pytest.approx(
        _reference_objective(engine.instance), abs=TOLERANCE
    )
