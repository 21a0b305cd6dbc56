"""Parity tests: array-backed hot paths vs scalar reference implementations.

The InstanceIndex refactor promises bit-identical algorithm behaviour: the
dense ``W`` matrix, the vectorized utility/feasibility paths and the
argsort-based repair order must agree with the definitional, per-pair scalar
computations on arbitrary instances.  Each test here re-implements the
scalar rule from the paper's definitions and checks the array path against
it on randomized instances.
"""

import math

import numpy as np
import pytest

from repro.core import GGGreedy, LPPacking, RandomU, improve
from repro.datagen import (
    ChurnConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
)
from repro.model import (
    Arrangement,
    ArrangementError,
    InstanceIndex,
    apply_delta,
)
from tests.core.test_defrag_rebuild import INSTANCES
from tests.util import random_instance, tiny_instance


def scalar_weight(instance, user_id, event_id):
    """w(u, v) from Definition 7, computed from first principles."""
    user = instance.user_by_id[user_id]
    event = instance.event_by_id[event_id]
    if instance.degrees_override is not None:
        degree = instance.degrees_override.get(user_id, 0.0)
    elif instance.num_users <= 1 or not instance.social.has_node(user_id):
        degree = 0.0
    else:
        degree = instance.social.degree(user_id) / (instance.num_users - 1)
    interest = instance.interest.interest(event, user)
    return instance.beta * interest + (1.0 - instance.beta) * degree


def scalar_utility(instance, pairs):
    return math.fsum(scalar_weight(instance, u, e) for e, u in pairs)


def scalar_violations(instance, pairs):
    """Definition 4 audit, written directly against the constraint list."""
    problems = []
    for event_id, user_id in pairs:
        if event_id not in instance.user_by_id.get(user_id).bid_set:
            problems.append(("bid", event_id, user_id))
    by_event = {}
    by_user = {}
    for event_id, user_id in pairs:
        by_event.setdefault(event_id, set()).add(user_id)
        by_user.setdefault(user_id, set()).add(event_id)
    for event_id, users in by_event.items():
        if len(users) > instance.event_by_id[event_id].capacity:
            problems.append(("event-capacity", event_id))
    for user_id, events in by_user.items():
        if len(events) > instance.user_by_id[user_id].capacity:
            problems.append(("user-capacity", user_id))
        events = sorted(events)
        for i, first in enumerate(events):
            for second in events[i + 1 :]:
                if instance.conflict.conflicts(
                    instance.event_by_id[first], instance.event_by_id[second]
                ):
                    problems.append(("conflict", user_id, first, second))
    return problems


class TestWeightParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_dense_w_equals_first_principles(self, seed):
        instance = random_instance(seed=seed, num_users=15, num_events=7)
        index = instance.index
        for i, user in enumerate(instance.users):
            for event_id in user.bids:
                j = index.event_pos[event_id]
                assert index.W[i, j] == scalar_weight(
                    instance, user.user_id, event_id
                )

    def test_beta_extremes(self):
        for beta in (0.0, 0.25, 1.0):
            instance = random_instance(seed=3, beta=beta)
            index = instance.index
            for i, user in enumerate(instance.users):
                for event_id in user.bids:
                    j = index.event_pos[event_id]
                    assert index.W[i, j] == scalar_weight(
                        instance, user.user_id, event_id
                    )


class TestUtilityParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_vectorized_utility_equals_scalar_fsum(self, seed):
        instance = random_instance(seed=seed)
        arrangement = RandomU().solve(instance, seed=seed).arrangement
        assert arrangement.utility() == scalar_utility(instance, arrangement.pairs)

    def test_utility_after_mutations(self):
        instance = tiny_instance()
        arrangement = Arrangement(instance)
        arrangement.add(1, 10)
        arrangement.add(3, 11)
        arrangement.add(3, 13)
        arrangement.remove(3, 11)
        assert arrangement.utility() == pytest.approx(
            scalar_utility(instance, arrangement.pairs)
        )


class TestFeasibilityAuditParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_feasible_arrangements_audit_clean(self, seed):
        instance = random_instance(seed=seed, conflict_probability=0.4)
        arrangement = GGGreedy().solve(instance, seed=seed).arrangement
        assert arrangement.is_feasible()
        assert scalar_violations(instance, arrangement.pairs) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_violation_detection_matches_scalar_audit(self, seed):
        """Unchecked random pair dumps: non-bid pairs are refused, and on the
        rest the vectorized probe and the scalar audit must agree on whether
        anything is wrong."""
        rng = np.random.default_rng(seed)
        instance = random_instance(seed=seed, conflict_probability=0.4)
        pairs = set()
        for _ in range(12):
            event = instance.events[rng.integers(instance.num_events)]
            user = instance.users[rng.integers(instance.num_users)]
            pairs.add((event.event_id, user.user_id))
        arrangement = Arrangement(instance)
        kept = set()
        for event_id, user_id in sorted(pairs):
            if event_id in instance.user_by_id[user_id].bid_set:
                arrangement.add(event_id, user_id, check=False)
                kept.add((event_id, user_id))
            else:
                with pytest.raises(ArrangementError, match="bid constraint"):
                    arrangement.add(event_id, user_id, check=False)
        assert arrangement.pairs == kept
        expected = bool(scalar_violations(instance, kept))
        assert (not arrangement.is_feasible()) == expected
        assert bool(arrangement.violations()) == expected

    def test_can_add_agrees_with_audit(self):
        """can_add must accept exactly the pairs whose addition stays clean."""
        for seed in range(4):
            instance = random_instance(seed=seed, conflict_probability=0.5)
            arrangement = RandomU().solve(instance, seed=seed).arrangement
            for user in instance.users:
                for event_id in user.bids:
                    if (event_id, user.user_id) in arrangement:
                        continue
                    candidate = arrangement.pairs | {(event_id, user.user_id)}
                    clean = not scalar_violations(instance, candidate)
                    assert arrangement.can_add(event_id, user.user_id) == clean


class TestRepairOrderParity:
    @pytest.mark.parametrize("repair_order", ["user", "weight"])
    def test_argsort_repair_matches_tuple_sort(self, repair_order):
        """The lexsort-based repair ordering must reproduce the tuple-key
        sort of the scalar implementation."""
        instance = random_instance(seed=5, num_users=20, num_events=8)
        algorithm = LPPacking(repair_order=repair_order)
        benchmark, x_star = algorithm._solved_benchmark(instance)[:2]
        rng = np.random.default_rng(0)
        chosen = algorithm.sample_sets(benchmark, x_star, rng)
        sampled = dict(benchmark.assignments[k] for k in chosen.tolist())

        # Scalar reference: the original tuple-sort repair.
        user_position = {u.user_id: i for i, u in enumerate(instance.users)}
        pairs = []
        for user_id, events in sampled.items():
            pairs.extend((event_id, user_id) for event_id in sorted(events))
        if repair_order == "user":
            pairs.sort(key=lambda p: (user_position[p[1]], p[0]))
        else:
            pairs.sort(
                key=lambda p: (
                    -instance.weight(p[1], p[0]),
                    user_position[p[1]],
                    p[0],
                )
            )
        remaining = {e.event_id: e.capacity for e in instance.events}
        expected = []
        for event_id, user_id in pairs:
            if remaining[event_id] > 0:
                remaining[event_id] -= 1
                expected.append((event_id, user_id))

        upos, vpos = algorithm.repair(
            instance, benchmark, chosen, np.random.default_rng(0)
        )
        index = instance.index
        actual = list(
            zip(index.event_ids[vpos].tolist(), index.user_ids[upos].tolist())
        )
        assert actual == expected


class TestPathologicalInputs:
    def test_no_eviction_at_over_capacity_event(self):
        """An event pushed over capacity via unchecked adds must not evict:
        after removing one attendee it is still full, exactly as the scalar
        remove/can_add probe concluded."""
        from repro.model import Event, IGEPAInstance, MatrixConflict, TabulatedInterest, User
        from repro.social import Graph

        events = [Event(event_id=1, capacity=1)]
        users = [
            User(user_id=1, capacity=1, bids=(1,)),
            User(user_id=2, capacity=1, bids=(1,)),
            User(user_id=3, capacity=1, bids=(1,)),
        ]
        instance = IGEPAInstance(
            events,
            users,
            MatrixConflict([]),
            TabulatedInterest({(1, 1): 0.1, (1, 2): 0.2, (1, 3): 0.9}),
            Graph(nodes=[1, 2, 3]),
        )
        arrangement = Arrangement.from_pairs(
            instance, [(1, 1), (1, 2)], check=False
        )
        moves = improve(instance, arrangement)
        assert moves["evictions"] == 0
        assert arrangement.pairs == {(1, 1), (1, 2)}


class TestLocalSearchParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_improve_preserves_feasibility_and_monotonicity(self, seed):
        instance = random_instance(seed=seed, conflict_probability=0.4)
        arrangement = RandomU().solve(instance, seed=seed).arrangement
        before = arrangement.utility()
        improve(instance, arrangement)
        assert arrangement.utility() >= before - 1e-9
        assert arrangement.is_feasible()
        assert scalar_violations(instance, arrangement.pairs) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_improve_reaches_maximality(self, seed):
        """At a local optimum no positive-weight pair can still be added."""
        instance = random_instance(seed=seed)
        arrangement = RandomU().solve(instance, seed=seed).arrangement
        improve(instance, arrangement)
        for user in instance.users:
            for event_id in user.bids:
                if (event_id, user.user_id) in arrangement:
                    continue
                if instance.weight(user.user_id, event_id) <= 1e-9:
                    continue
                assert not arrangement.can_add(event_id, user.user_id)


def cellwise_dense(index):
    """``SI``/``bid_mask``/``W`` by the cell-wise formula: scatter SI and the
    mask, then ``β·SI + (1-β)·D`` where a bid is and 0.0 elsewhere."""
    shape = (index.num_users, index.num_events)
    si = np.zeros(shape, dtype=np.float64)
    mask = np.zeros(shape, dtype=bool)
    si[index.bid_user_positions, index.bid_indices] = index.bid_si
    mask[index.bid_user_positions, index.bid_indices] = True
    beta = index.instance.beta
    w = np.where(mask, beta * si + (1.0 - beta) * index.degrees[:, None], 0.0)
    return {"SI": si, "bid_mask": mask, "W": w}


class TestDenseMatricesPinned:
    """The dense index scatters its CSR values into the matrices; the bytes
    must equal the cell-wise formula's, from scratch and after churn."""

    @staticmethod
    def assert_pinned(index):
        for name, expected in cellwise_dense(index).items():
            actual = getattr(index, name)
            assert actual.dtype == expected.dtype, name
            assert actual.shape == expected.shape, name
            assert actual.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_from_scratch(self, name):
        instance = INSTANCES[name]()  # the index holds it weakly
        self.assert_pinned(InstanceIndex(instance))

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    def test_churned_successor(self, beta):
        instance = generate_synthetic(
            SyntheticConfig(num_users=300, beta=beta), seed=7
        )
        arrangement = GGGreedy().solve(instance, seed=0).arrangement
        trace = generate_churn_trace(
            instance, ChurnConfig(num_batches=3, burst_every=2), seed=8
        )
        for delta in trace.deltas:
            result = apply_delta(instance, delta, arrangement)
            assert isinstance(result.instance.index, InstanceIndex)
            self.assert_pinned(result.instance.index)
            instance, arrangement = result.instance, result.arrangement
