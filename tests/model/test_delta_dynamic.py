"""Unit tests for the dynamic delta kinds: capacity changes + interest drift.

Parity with from-scratch rebuilds across index implementations and shard
sizes lives in ``tests/integration/test_dynamic_parity.py``; this file
covers the delta semantics on hand-checkable instances.
"""

import pytest

from repro.core.baselines import GGGreedy
from repro.core.repair import repair
from repro.model import Arrangement, Delta, DeltaError, apply_delta
from tests.util import random_instance, tiny_instance


class TestDeltaObject:
    def test_capacity_only_delta_is_not_empty(self):
        assert not Delta(set_user_capacity=((10, 3),)).is_empty()
        assert not Delta(set_event_capacity=((1, 3),)).is_empty()

    def test_summary_counts_capacity_updates(self):
        summary = Delta(
            set_user_capacity=((10, 3), (11, 1)),
            set_event_capacity=((1, 0),),
        ).summary()
        assert summary["user_capacity_updates"] == 2
        assert summary["event_capacity_updates"] == 1

    def test_entries_coerced_to_int(self):
        delta = Delta(set_event_capacity=[(1.0, 5.0)])
        assert delta.set_event_capacity == ((1, 5),)


class TestValidation:
    def test_unknown_user_rejected(self):
        with pytest.raises(DeltaError, match="surviving pre-existing user"):
            apply_delta(tiny_instance(), Delta(set_user_capacity=((99, 2),)))

    def test_unknown_event_rejected(self):
        with pytest.raises(DeltaError, match="surviving pre-existing event"):
            apply_delta(tiny_instance(), Delta(set_event_capacity=((99, 2),)))

    def test_removed_target_rejected(self):
        with pytest.raises(DeltaError, match="surviving pre-existing user"):
            apply_delta(
                tiny_instance(),
                Delta(remove_users=(10,), set_user_capacity=((10, 2),)),
            )
        with pytest.raises(DeltaError, match="surviving pre-existing event"):
            apply_delta(
                tiny_instance(),
                Delta(remove_events=(1,), set_event_capacity=((1, 2),)),
            )

    def test_duplicate_targets_rejected(self):
        with pytest.raises(DeltaError, match="duplicate capacity change"):
            apply_delta(
                tiny_instance(), Delta(set_user_capacity=((10, 2), (10, 3)))
            )
        with pytest.raises(DeltaError, match="duplicate capacity change"):
            apply_delta(
                tiny_instance(), Delta(set_event_capacity=((1, 2), (1, 3)))
            )

    def test_negative_capacity_rejected(self):
        with pytest.raises(DeltaError, match="expected >= 0"):
            apply_delta(tiny_instance(), Delta(set_user_capacity=((10, -1),)))
        with pytest.raises(DeltaError, match="expected >= 0"):
            apply_delta(tiny_instance(), Delta(set_event_capacity=((1, -1),)))


class TestSuccessor:
    def test_entities_carry_new_capacity(self):
        instance = tiny_instance()
        result = apply_delta(
            instance,
            Delta(set_user_capacity=((11, 5),), set_event_capacity=((2, 7),)),
        )
        successor = result.instance
        assert successor.user_by_id[11].capacity == 5
        assert successor.event_by_id[2].capacity == 7
        # Untouched entities carry over unchanged.  (Equality, not
        # identity: entities are views over each instance's own store.)
        assert successor.user_by_id[10] == instance.user_by_id[10]
        assert successor.event_by_id[1] == instance.event_by_id[1]
        # The patched index agrees.
        index = successor.index
        assert int(index.user_capacity[index.user_pos[11]]) == 5
        assert int(index.event_capacity[index.event_pos[2]]) == 7

    def test_touched_sets_include_capacity_targets(self):
        result = apply_delta(
            tiny_instance(),
            Delta(set_user_capacity=((11, 5),), set_event_capacity=((2, 7),)),
        )
        assert 11 in result.touched_users
        assert 2 in result.touched_events


class TestCarryShedding:
    def test_event_shrink_sheds_lightest_pair(self):
        instance = tiny_instance()
        # Event 1 (cap 2) holds users 10 (w_10,1 heavier) and 11.
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (1, 11)])
        w10 = instance.weight(10, 1)
        w11 = instance.weight(11, 1)
        assert w10 != w11  # hand-checkable: distinct weights
        lighter = 10 if w10 < w11 else 11
        result = apply_delta(
            instance, Delta(set_event_capacity=((1, 1),)), arrangement
        )
        assert result.arrangement.is_feasible()
        assert result.arrangement.attendance(1) == 1
        assert (1, lighter) in result.dropped_pairs
        assert lighter in result.touched_users

    def test_user_shrink_to_zero_sheds_everything(self):
        instance = tiny_instance()
        arrangement = Arrangement.from_pairs(instance, [(1, 11), (3, 11)])
        result = apply_delta(
            instance, Delta(set_user_capacity=((11, 0),)), arrangement
        )
        assert result.arrangement.is_feasible()
        assert result.arrangement.load(11) == 0
        assert sorted(result.dropped_pairs) == [(1, 11), (3, 11)]

    def test_capacity_raise_sheds_nothing(self):
        instance = tiny_instance()
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (1, 11)])
        result = apply_delta(
            instance,
            Delta(set_event_capacity=((1, 10),), set_user_capacity=((10, 4),)),
            arrangement,
        )
        assert result.dropped_pairs == []
        assert len(result.arrangement) == 2

    def test_shrink_with_churn_in_same_delta(self):
        """Capacity shrink composes with removals/conflict edits."""
        instance = random_instance(7, num_events=8, num_users=16)
        arrangement = GGGreedy().solve(instance, seed=0).arrangement
        busiest = max(
            (e.event_id for e in instance.events),
            key=lambda e: arrangement.attendance(e),
        )
        target = max(0, arrangement.attendance(busiest) - 2)
        victim_user = instance.users[0].user_id
        delta = Delta(
            remove_users=(victim_user,),
            set_event_capacity=((busiest, target),),
        )
        result = apply_delta(instance, delta, arrangement)
        assert result.arrangement.is_feasible()
        assert result.arrangement.attendance(busiest) <= target


class TestRepairAfterShrink:
    def test_repair_keeps_shrink_satisfied(self):
        """Repair must never re-violate a tightened capacity."""
        instance = random_instance(3, num_events=10, num_users=24)
        arrangement = GGGreedy().solve(instance, seed=0).arrangement
        shrinks = tuple(
            (event.event_id, max(0, arrangement.attendance(event.event_id) - 1))
            for event in instance.events[:4]
        )
        result = apply_delta(
            instance, Delta(set_event_capacity=shrinks), arrangement
        )
        repair(result)
        assert result.arrangement.is_feasible()
        for event_id, capacity in shrinks:
            assert result.arrangement.attendance(event_id) <= capacity


class TestInterestDrift:
    def test_drift_reweights_existing_pair(self):
        instance = tiny_instance()
        result = apply_delta(instance, Delta(interest=((1, 10, 0.05),)))
        successor = result.instance
        assert successor.interest_of(1, 10) == 0.05
        index = successor.index
        assert index.si_at(index.user_pos[10], index.event_pos[1]) == 0.05
        assert 10 in result.touched_users
        assert 1 in result.touched_events
