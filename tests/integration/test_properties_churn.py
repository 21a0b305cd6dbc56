"""Randomized property tests: local search, online algorithms, churn repair.

Every property is checked over a battery of random instances/seeds:

* local-search ``improve`` only ever emits Definition-4-feasible
  arrangements, and utility is non-decreasing across every accepted move
  (verified pass by pass — each pass accepts a batch of moves);
* both online algorithms emit feasible arrangements under arbitrary
  arrival randomness;
* churn repair never leaves a violated pair behind, on steady and on
  adversarial-burst traces, and the delta-maintained index stays
  bit-identical to a from-scratch rebuild along the whole chain.
"""

import numpy as np
import pytest

from repro.core import (
    GGGreedy,
    OnlineGreedy,
    OnlineRandom,
    RandomU,
    improve,
    repair,
)
from repro.datagen import ChurnConfig, generate_churn_trace
from repro.experiments import index_parity_mismatches
from repro.model import InstanceIndex, apply_delta
from tests.util import random_instance

SEEDS = range(6)


class TestLocalSearchProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_feasible_and_monotone_per_pass(self, seed):
        """Each single pass accepts a batch of moves; utility must never
        decrease across passes and feasibility must hold after each."""
        instance = random_instance(
            seed=seed, num_users=30, num_events=10, conflict_probability=0.4
        )
        arrangement = RandomU(seed=seed).solve(instance, seed=seed).arrangement
        utility = arrangement.utility()
        for _ in range(10):
            moves = improve(instance, arrangement, max_passes=1)
            assert arrangement.is_feasible(), arrangement.violations()[:3]
            new_utility = arrangement.utility()
            assert new_utility >= utility - 1e-12
            moved = moves["adds"] + moves["upgrades"] + moves["evictions"]
            if moved == 0:
                break
            # Accepted moves must each gain at least the minimum margin.
            assert new_utility > utility
            utility = new_utility

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scoped_improve_feasible_and_monotone(self, seed):
        instance = random_instance(seed=seed, num_users=24, num_events=8)
        arrangement = GGGreedy().solve(instance, seed=seed).arrangement
        rng = np.random.default_rng(seed)
        users = rng.choice(
            instance.num_users, size=instance.num_users // 2, replace=False
        )
        events = rng.choice(
            instance.num_events, size=instance.num_events // 2, replace=False
        )
        before = arrangement.utility()
        improve(
            instance,
            arrangement,
            user_positions=users.tolist(),
            event_positions=events.tolist(),
            refill_events=True,
        )
        assert arrangement.is_feasible()
        assert arrangement.utility() >= before - 1e-12


class TestOnlineProperties:
    @pytest.mark.parametrize("algorithm_class", [OnlineGreedy, OnlineRandom])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_always_feasible(self, algorithm_class, seed):
        instance = random_instance(
            seed=seed,
            num_users=25,
            num_events=8,
            max_event_capacity=2,
            conflict_probability=0.5,
        )
        result = algorithm_class().solve(instance, seed=seed)
        assert result.arrangement.is_feasible(), (
            result.arrangement.violations()[:3]
        )
        assert result.utility >= 0.0


class TestChurnRepairProperties:
    @staticmethod
    def _config(burst: bool) -> ChurnConfig:
        return ChurnConfig(
            num_batches=6,
            user_arrival_rate=4.0,
            user_departure_rate=4.0,
            rebid_rate=6.0,
            event_open_rate=1.0,
            event_close_rate=1.0,
            conflict_toggle_rate=1.5,
            burst_every=3 if burst else 0,
            burst_user_multiplier=8.0,
            burst_event_close_fraction=0.4,
        )

    @pytest.mark.parametrize("burst", [False, True], ids=["steady", "burst"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_repair_never_leaves_violations_and_index_stays_exact(
        self, seed, burst
    ):
        instance = random_instance(
            seed=seed, num_users=30, num_events=10, conflict_probability=0.4
        )
        trace = generate_churn_trace(
            instance, self._config(burst), seed=seed + 50
        )
        arrangement = GGGreedy().solve(instance, seed=seed).arrangement
        current = instance
        for batch, delta in enumerate(trace.deltas):
            result = apply_delta(current, delta, arrangement)
            repair(result)
            repaired = result.arrangement
            assert repaired.violations() == [], f"batch {batch} (seed {seed})"
            assert repaired.is_feasible()
            mismatches = index_parity_mismatches(
                result.instance.index, InstanceIndex(result.instance)
            )
            assert mismatches == [], f"batch {batch} (seed {seed}): {mismatches}"
            current, arrangement = result.instance, repaired

    @pytest.mark.parametrize("seed", SEEDS)
    def test_carryover_alone_is_feasible(self, seed):
        """Even before repair, the carried arrangement must be feasible."""
        instance = random_instance(seed=seed, num_users=30, num_events=10)
        trace = generate_churn_trace(instance, self._config(True), seed=seed)
        arrangement = GGGreedy().solve(instance, seed=seed).arrangement
        current = instance
        for delta in trace.deltas:
            result = apply_delta(current, delta, arrangement)
            assert result.arrangement.violations() == []
            current, arrangement = result.instance, result.arrangement
