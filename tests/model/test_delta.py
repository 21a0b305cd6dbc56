"""Unit tests for churn deltas and incremental index maintenance."""

import numpy as np
import pytest

from repro.model import (
    Arrangement,
    Delta,
    DeltaError,
    Event,
    IGEPAInstance,
    InstanceIndex,
    MatrixConflict,
    User,
    apply_delta,
)
from repro.model.delta import index_parity_mismatches
from tests.util import random_instance, tiny_instance

#: Every array the patched index must reproduce bit for bit.
INDEX_ARRAYS = [
    "user_ids",
    "event_ids",
    "user_capacity",
    "event_capacity",
    "degrees",
    "conflict_matrix",
    "bid_indptr",
    "bid_indices",
    "bid_si",
    "SI",
    "bid_mask",
    "W",
    "bid_user_positions",
    "bid_weights",
    "bidder_indptr",
    "bidder_indices",
    "bidder_weights",
]


def assert_index_parity(instance):
    """The attached (patched) index must equal a from-scratch build."""
    patched = instance.index
    fresh = InstanceIndex(instance)
    for name in INDEX_ARRAYS:
        a, b = getattr(patched, name), getattr(fresh, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), f"patched {name} differs from fresh build"
    assert patched.user_pos == fresh.user_pos
    assert patched.event_pos == fresh.event_pos


class TestDeltaObject:
    def test_empty_delta(self):
        delta = Delta()
        assert delta.is_empty()
        assert all(count == 0 for count in delta.summary().values())

    def test_reweighting_delta_is_not_empty(self):
        """Regression: interest/degree-only deltas change utilities, so
        they must not report themselves as no-ops."""
        assert not Delta(interest=((1, 10, 0.5),)).is_empty()
        assert not Delta(degrees=((10, 0.5),)).is_empty()

    def test_summary_counts(self):
        delta = Delta(
            add_users=(User(user_id=99, capacity=1, bids=(1,)),),
            remove_events=(3,),
            add_bids=((10, 3), (11, 2)),
        )
        assert not delta.is_empty()
        summary = delta.summary()
        assert summary["add_users"] == 1
        assert summary["remove_events"] == 1
        assert summary["add_bids"] == 2

    def test_summary_counts_reweightings(self):
        """Regression: interest/degree updates were missing from summary(),
        so pure re-weighting batches reported zero operations."""
        summary = Delta(
            interest=((1, 10, 0.5), (2, 10, 0.6)), degrees=((10, 0.5),)
        ).summary()
        assert summary["interest_updates"] == 2
        assert summary["degree_updates"] == 1


class TestValidation:
    def test_remove_unknown_user(self):
        with pytest.raises(DeltaError, match="unknown user"):
            apply_delta(tiny_instance(), Delta(remove_users=(999,)))

    def test_remove_unknown_event(self):
        with pytest.raises(DeltaError, match="unknown event"):
            apply_delta(tiny_instance(), Delta(remove_events=(999,)))

    def test_add_existing_user_id(self):
        with pytest.raises(DeltaError, match="already exists"):
            apply_delta(
                tiny_instance(),
                Delta(add_users=(User(user_id=10, capacity=1),)),
            )

    def test_add_existing_event_id(self):
        with pytest.raises(DeltaError, match="already exists"):
            apply_delta(
                tiny_instance(),
                Delta(add_events=(Event(event_id=1, capacity=1),)),
            )

    def test_new_user_bids_must_survive(self):
        with pytest.raises(DeltaError, match="do not survive"):
            apply_delta(
                tiny_instance(),
                Delta(
                    remove_events=(3,),
                    add_users=(User(user_id=99, capacity=1, bids=(3,)),),
                ),
            )

    def test_new_user_may_bid_new_event(self):
        result = apply_delta(
            tiny_instance(),
            Delta(
                add_events=(Event(event_id=50, capacity=1),),
                add_users=(User(user_id=99, capacity=1, bids=(50,)),),
                interest=((50, 99, 0.5),),
            ),
        )
        assert result.instance.weight(99, 50) == pytest.approx(0.25)
        assert_index_parity(result.instance)

    def test_remove_nonexistent_bid(self):
        with pytest.raises(DeltaError, match="has no bid"):
            apply_delta(tiny_instance(), Delta(remove_bids=((10, 3),)))

    def test_remove_bid_of_removed_user_rejected(self):
        with pytest.raises(DeltaError, match="not a\\s+surviving user"):
            apply_delta(
                tiny_instance(),
                Delta(remove_users=(10,), remove_bids=((10, 1),)),
            )

    def test_add_duplicate_bid(self):
        with pytest.raises(DeltaError, match="already bids"):
            apply_delta(tiny_instance(), Delta(add_bids=((10, 1),)))

    def test_conflict_edit_requires_matrix_conflict(self):
        from repro.model import IGEPAInstance, NoConflict

        payload = tiny_instance().to_dict()
        payload["conflict"] = NoConflict().to_dict()
        instance = IGEPAInstance.from_dict(payload)
        with pytest.raises(DeltaError, match="MatrixConflict"):
            apply_delta(instance, Delta(add_conflicts=((1, 3),)))

    def test_add_existing_conflict(self):
        with pytest.raises(DeltaError, match="already present"):
            apply_delta(tiny_instance(), Delta(add_conflicts=((1, 2),)))

    def test_remove_missing_conflict(self):
        with pytest.raises(DeltaError, match="not present"):
            apply_delta(tiny_instance(), Delta(remove_conflicts=((1, 3),)))

    def test_conflict_edits_among_new_events(self):
        """New events hold no conflict before the delta's own additions: a
        removal among them is not present, and an addition listed twice
        (in either orientation) is already present the second time."""
        opened = (Event(event_id=7, capacity=1), Event(event_id=8, capacity=1))
        with pytest.raises(DeltaError, match=r"\(7, 8\) not present"):
            apply_delta(
                tiny_instance(),
                Delta(add_events=opened, remove_conflicts=((7, 8),)),
            )
        with pytest.raises(DeltaError, match=r"\(8, 7\) already present"):
            apply_delta(
                tiny_instance(),
                Delta(add_events=opened, add_conflicts=((7, 8), (8, 7))),
            )
        result = apply_delta(
            tiny_instance(), Delta(add_events=opened, add_conflicts=((7, 8),))
        )
        assert result.instance.conflicts(7, 8)

    def test_interest_out_of_range(self):
        with pytest.raises(DeltaError, match="expected a value in"):
            apply_delta(tiny_instance(), Delta(interest=((1, 10, 1.5),)))

    def test_degrees_require_override_instance(self):
        with pytest.raises(DeltaError, match="degree overrides"):
            apply_delta(tiny_instance(), Delta(degrees=((10, 0.5),)))

    def test_arrangement_of_other_instance_rejected(self):
        instance = tiny_instance()
        other = tiny_instance()
        arrangement = Arrangement(other)
        with pytest.raises(DeltaError, match="different instance"):
            apply_delta(instance, Delta(), arrangement)


class TestApplySemantics:
    def test_empty_delta_preserves_content(self):
        instance = tiny_instance()
        result = apply_delta(instance, Delta())
        assert result.instance is not instance
        assert [u.user_id for u in result.instance.users] == [10, 11, 12, 13]
        assert [e.event_id for e in result.instance.events] == [1, 2, 3]
        assert_index_parity(result.instance)

    def test_remove_event_drops_survivor_bids(self):
        result = apply_delta(tiny_instance(), Delta(remove_events=(3,)))
        successor = result.instance
        assert successor.user_by_id[11].bids == (1,)
        assert successor.user_by_id[13].bids == ()
        assert_index_parity(successor)

    def test_bid_add_appends_in_delta_order(self):
        result = apply_delta(
            tiny_instance(),
            Delta(add_bids=((10, 3),), interest=((3, 10, 0.2),)),
        )
        assert result.instance.user_by_id[10].bids == (1, 2, 3)
        assert_index_parity(result.instance)

    def test_rebid_same_event_moves_to_end(self):
        """Removing and re-adding a bid in one delta reorders it last and
        picks up the delta's interest value."""
        result = apply_delta(
            tiny_instance(),
            Delta(
                remove_bids=((10, 1),),
                add_bids=((10, 1),),
                interest=((1, 10, 0.1),),
            ),
        )
        assert result.instance.user_by_id[10].bids == (2, 1)
        assert result.instance.interest_of(1, 10) == pytest.approx(0.1)
        assert_index_parity(result.instance)

    def test_interest_update_on_existing_bid_patches_index(self):
        """Regression: re-weighting an existing bid pair merged into the
        successor's interest table but was never written through to the
        patched SI/W, breaking bit-identity with a from-scratch build."""
        instance = tiny_instance()  # SI(1, 10) = 0.9 at time zero
        result = apply_delta(instance, Delta(interest=((1, 10, 0.15),)))
        successor = result.instance
        assert successor.interest_of(1, 10) == pytest.approx(0.15)
        upos = successor.index.user_pos[10]
        vpos = successor.index.event_pos[1]
        assert successor.index.SI[upos, vpos] == 0.15
        assert_index_parity(successor)
        # The predecessor keeps its original weight.
        assert instance.interest_of(1, 10) == pytest.approx(0.9)

    def test_conflict_toggles(self):
        instance = tiny_instance()
        result = apply_delta(
            instance,
            Delta(add_conflicts=((1, 3),), remove_conflicts=((1, 2),)),
        )
        successor = result.instance
        assert successor.conflicts(1, 3)
        assert not successor.conflicts(1, 2)
        # The predecessor is untouched.
        assert instance.conflicts(1, 2)
        assert not instance.conflicts(1, 3)
        assert_index_parity(successor)

    def test_successor_sigma_is_a_view_of_the_store(self):
        result = apply_delta(
            tiny_instance(),
            Delta(
                add_events=(Event(event_id=4, capacity=1),),
                add_conflicts=((3, 4),),
                remove_events=(2,),
            ),
        )
        successor = result.instance
        sigma = successor.conflict
        assert isinstance(sigma, MatrixConflict)
        assert np.shares_memory(sigma.relation, successor.store.conflict_matrix)
        assert sigma.relation is successor.index.conflict_matrix
        assert sigma.pairs() == [(3, 4)]

    def test_churned_successor_round_trips(self):
        from repro.model import IGEPAInstance

        result = apply_delta(
            tiny_instance(),
            Delta(
                add_events=(Event(event_id=4, capacity=1),),
                add_conflicts=((1, 3), (3, 4)),
                remove_conflicts=((1, 2),),
            ),
        )
        successor = result.instance
        payload = successor.to_dict()
        assert payload["conflict"] == {"kind": "matrix", "pairs": [[1, 3], [3, 4]]}
        restored = IGEPAInstance.from_dict(payload)
        assert restored.to_dict() == payload
        for name in ("conflict_matrix", "conflict_words"):
            assert np.array_equal(
                getattr(restored.index, name), getattr(successor.index, name)
            ), name
        assert restored.index.conflict_bits == successor.index.conflict_bits

    def test_successor_saves_no_pairs_outside_the_instance(self):
        """A σ built from pairs naming events the instance lacks keeps them
        until the first delta; the successor's σ holds its events only."""
        base = tiny_instance()
        instance = IGEPAInstance(
            list(base.events),
            list(base.users),
            MatrixConflict([(1, 2), (1, 99)]),
            base.interest,
            base.social,
            beta=base.beta,
        )
        successor = apply_delta(instance, Delta(add_conflicts=((2, 3),))).instance
        assert instance.conflict.to_dict()["pairs"] == [[1, 2], [1, 99]]
        assert successor.conflict.to_dict()["pairs"] == [[1, 2], [2, 3]]

    def test_degree_override_patch(self):
        from repro.datagen import SyntheticConfig, generate_synthetic

        instance = generate_synthetic(
            SyntheticConfig(num_events=10, num_users=30), seed=3
        )
        assert instance.degrees_override is not None
        victim = instance.users[0].user_id
        updated = instance.users[1].user_id
        result = apply_delta(
            instance,
            Delta(
                remove_users=(victim,),
                add_users=(User(user_id=9000, capacity=1, bids=(0,)),),
                interest=((0, 9000, 0.5),),
                degrees=((9000, 0.25), (updated, 0.75)),
            ),
        )
        successor = result.instance
        assert victim not in successor.degrees_override
        assert successor.degree(9000) == 0.25
        assert successor.degree(updated) == 0.75
        assert_index_parity(successor)

    def test_graph_backed_degree_renormalization(self):
        """Removing users changes the |U| - 1 normalizer for everyone."""
        instance = random_instance(seed=2, num_users=8)
        victim = instance.users[-1].user_id
        result = apply_delta(instance, Delta(remove_users=(victim,)))
        assert_index_parity(result.instance)
        survivor = result.instance.users[0].user_id
        old_degree = instance.degree(survivor)
        new_degree = result.instance.degree(survivor)
        if instance.social.degree(survivor) > 0:
            assert new_degree != old_degree

    def test_predecessor_untouched(self):
        instance = tiny_instance()
        before_users = list(instance.users)
        before_index = instance.index
        apply_delta(
            instance,
            Delta(
                remove_users=(10,),
                remove_events=(2,),
                add_users=(User(user_id=77, capacity=1, bids=(1,)),),
                interest=((1, 77, 0.9),),
            ),
        )
        assert list(instance.users) == before_users
        assert instance.index is before_index
        assert instance.social.has_node(10)

    def test_non_incremental_matches_incremental_content(self):
        instance = random_instance(seed=5)
        delta = Delta(remove_users=(instance.users[0].user_id,))
        incremental = apply_delta(instance, delta).instance
        full = apply_delta(instance, delta, incremental=False).instance
        assert full._index is None  # index deferred to first use
        for name in INDEX_ARRAYS:
            assert np.array_equal(
                getattr(incremental.index, name), getattr(full.index, name)
            ), name


PATCH_DELTAS = {
    # Entries on pairs nobody bids for never reach the index; a pair given
    # twice keeps its last value.
    "interest-on-non-bid-pairs": Delta(
        interest=((3, 10, 0.5), (1, 13, 0.2), (1, 10, 0.3), (1, 10, 0.6))
    ),
    "interest-on-bids-added-in-delta": Delta(
        add_users=(User(user_id=55, capacity=2, bids=(1, 3)),),
        add_bids=((10, 3), (13, 1)),
        interest=((3, 10, 0.2), (1, 13, 0.7), (1, 55, 0.4), (3, 55, 0.9)),
    ),
    "interest-on-removed-users": Delta(
        remove_users=(11,),
        interest=((1, 11, 0.5), (3, 11, 0.1), (2, 12, 0.25)),
    ),
    "bid-removal-on-closing-event": Delta(
        remove_bids=((11, 3), (12, 3), (10, 2)),
        remove_events=(3,),
    ),
}


@pytest.mark.parametrize("sharded", [False, True], ids=["dense", "sharded"])
@pytest.mark.parametrize("name", sorted(PATCH_DELTAS))
class TestPatchLoops:
    """The vectorized bid-removal and interest write-through lookups: the
    patched index equals a fresh build, and a full rebuild
    (``incremental=False``) holds the same arrays."""

    def test_patched_equals_fresh_build(self, name, sharded):
        from repro.model.delta import fresh_index_like, index_parity_mismatches

        instance = tiny_instance()
        if sharded:
            instance.configure_index(sharded=True)
        successor = apply_delta(instance, PATCH_DELTAS[name]).instance
        patched = successor.index
        fresh = fresh_index_like(patched, successor)
        assert index_parity_mismatches(patched, fresh) == []
        assert patched.user_pos == fresh.user_pos
        assert patched.event_pos == fresh.event_pos

    def test_full_rebuild_matches(self, name, sharded):
        from repro.model.delta import index_parity_mismatches

        instance = tiny_instance()
        if sharded:
            instance.configure_index(sharded=True)
        delta = PATCH_DELTAS[name]
        patched = apply_delta(instance, delta).instance.index
        full = apply_delta(instance, delta, incremental=False).instance
        assert full._index is None
        assert index_parity_mismatches(patched, full.index) == []


class TestNewEventConflictRows:
    """A base σ may name an event id before the event exists; adding the
    event brings that conflict in on every path."""

    @staticmethod
    def _instance():
        from repro.model import IGEPAInstance

        payload = tiny_instance().to_dict()
        payload["conflict"] = {"kind": "matrix", "pairs": [[1, 2], [1, 99]]}
        return IGEPAInstance.from_dict(payload)

    @pytest.mark.parametrize("incremental", [True, False], ids=["patched", "full"])
    def test_future_event_conflict_arrives_with_the_event(self, incremental):
        delta = Delta(add_events=(Event(event_id=99, capacity=1),))
        successor = apply_delta(
            self._instance(), delta, incremental=incremental
        ).instance
        assert successor.conflicts(1, 99) and successor.conflicts(99, 1)
        assert not successor.conflicts(2, 99)
        assert successor.conflict.conflicts_ids(1, 99)
        fresh = InstanceIndex(successor)
        first, second = fresh.event_pos[1], fresh.event_pos[99]
        assert fresh.conflict_matrix[first, second]
        assert index_parity_mismatches(successor.index, fresh) == []

    def test_unknown_new_event_conflicts_with_nothing(self):
        delta = Delta(add_events=(Event(event_id=50, capacity=1),))
        successor = apply_delta(self._instance(), delta).instance
        row = successor.index.conflict_matrix[successor.index.event_pos[50]]
        assert not row.any()

    def test_time_interval_sigma_rows_of_new_events(self):
        from repro.model import InstanceBuilder

        instance = (
            InstanceBuilder()
            .event(1, capacity=2, start=0.0, duration=2.0)
            .event(2, capacity=2, start=5.0, duration=1.0)
            .user(10, capacity=2, bids=[1, 2])
            .build()
        )
        opened = Event(event_id=3, capacity=1, start_time=1.0, duration=2.0)
        successor = apply_delta(instance, Delta(add_events=(opened,))).instance
        assert successor.conflicts(1, 3) and not successor.conflicts(2, 3)
        assert index_parity_mismatches(
            successor.index, InstanceIndex(successor)
        ) == []


class TestPatchValues:
    def test_repeated_interest_entry_keeps_last_value(self):
        successor = apply_delta(
            tiny_instance(), PATCH_DELTAS["interest-on-non-bid-pairs"]
        ).instance
        index = successor.index
        assert index.si_at(index.user_pos[10], index.event_pos[1]) == 0.6
        assert not index.is_bid_pair(index.user_pos[10], index.event_pos[3])

    def test_bid_removal_on_closing_event(self):
        successor = apply_delta(
            tiny_instance(), PATCH_DELTAS["bid-removal-on-closing-event"]
        ).instance
        assert successor.user_by_id[10].bids == (1,)
        assert successor.user_by_id[11].bids == (1,)
        assert successor.user_by_id[12].bids == (2,)


class TestCarryOver:
    def test_pairs_of_removed_entities_dropped(self):
        instance = tiny_instance()
        arrangement = Arrangement.from_pairs(
            instance, [(1, 10), (3, 11), (3, 13)]
        )
        result = apply_delta(
            instance, Delta(remove_users=(13,), remove_events=(1,)), arrangement
        )
        assert result.arrangement.pairs == {(3, 11)}
        assert sorted(result.dropped_pairs) == [(1, 10), (3, 13)]
        assert result.arrangement.is_feasible()

    def test_removed_bid_drops_pair(self):
        instance = tiny_instance()
        arrangement = Arrangement.from_pairs(instance, [(1, 10), (3, 11)])
        result = apply_delta(
            instance, Delta(remove_bids=((10, 1),)), arrangement
        )
        assert result.arrangement.pairs == {(3, 11)}
        assert result.dropped_pairs == [(1, 10)]

    def test_new_conflict_drops_lighter_pair(self):
        instance = tiny_instance()
        # User 11 attends 1 (w = 0.3 + 1/6) and 3 (w = 0.4 + 1/6).
        arrangement = Arrangement.from_pairs(instance, [(1, 11), (3, 11)])
        result = apply_delta(
            instance, Delta(add_conflicts=((1, 3),)), arrangement
        )
        assert result.arrangement.pairs == {(3, 11)}
        assert result.dropped_pairs == [(1, 11)]
        assert result.arrangement.is_feasible()

    def test_counters_match_checked_rebuild(self):
        instance = random_instance(seed=9, num_users=20, num_events=8)
        from repro.core import GGGreedy

        arrangement = GGGreedy().solve(instance, seed=0).arrangement
        victims = [u.user_id for u in instance.users[:3]]
        result = apply_delta(
            instance, Delta(remove_users=tuple(victims)), arrangement
        )
        rebuilt = Arrangement.from_pairs(
            result.instance, result.arrangement.pairs, check=True
        )
        for rebuilt_array, carried_array in zip(
            rebuilt.assigned_positions(), result.arrangement.assigned_positions()
        ):
            assert np.array_equal(rebuilt_array, carried_array)
        assert np.array_equal(
            rebuilt.attendance_counts, result.arrangement.attendance_counts
        )
        assert np.array_equal(
            rebuilt.load_counts, result.arrangement.load_counts
        )
        assert rebuilt.utility() == result.arrangement.utility()

    def test_touched_sets_cover_dropped_and_added(self):
        instance = tiny_instance()
        arrangement = Arrangement.from_pairs(instance, [(1, 10)])
        result = apply_delta(
            instance,
            Delta(
                remove_users=(10,),
                add_users=(User(user_id=55, capacity=1, bids=(3,)),),
                add_bids=((12, 1),),
                interest=((3, 55, 0.5), (1, 12, 0.5)),
            ),
            arrangement,
        )
        # Dropped user 10 does not survive; new/bid-changed users do.
        assert result.touched_users == {55, 12}
        assert 1 in result.touched_events  # freed seat + new bid target


class TestLargeRandomizedParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_compound_delta_parity(self, seed):
        rng = np.random.default_rng(seed)
        instance = random_instance(
            seed=seed, num_users=30, num_events=10, max_bids=4
        )
        users = [u.user_id for u in instance.users]
        events = [e.event_id for e in instance.events]
        removed_users = [
            int(u) for u in rng.choice(users, size=4, replace=False)
        ]
        removed_events = [int(rng.choice(events))]
        new_event = Event(event_id=1000 + seed, capacity=2)
        survivors_e = [e for e in events if e not in removed_events]
        new_user_bids = tuple(
            sorted(
                {int(e) for e in rng.choice(survivors_e, size=2, replace=False)}
                | {new_event.event_id}
            )
        )
        new_user = User(user_id=5000 + seed, capacity=2, bids=new_user_bids)
        delta = Delta(
            remove_users=tuple(removed_users),
            remove_events=tuple(removed_events),
            add_events=(new_event,),
            add_users=(new_user,),
            interest=tuple(
                (event_id, new_user.user_id, float(rng.uniform()))
                for event_id in new_user_bids
            ),
        )
        result = apply_delta(instance, delta)
        assert_index_parity(result.instance)


class TestInterestSavedForm:
    """``to_dict`` saves the interest table plus every bid whose stored SI
    differs from it, so a churned successor loads with the same column."""

    @pytest.mark.parametrize("stream", [False, True], ids=["synthetic", "stream"])
    def test_churned_successor_round_trips_bid_si(self, stream):
        from repro.datagen import (
            ChurnConfig,
            SyntheticConfig,
            generate_churn_trace,
            generate_synthetic,
            generate_synthetic_stream,
        )
        from repro.model import IGEPAInstance

        generator = generate_synthetic_stream if stream else generate_synthetic
        instance = generator(SyntheticConfig(num_users=40, num_events=10), seed=4)
        trace = generate_churn_trace(
            instance,
            ChurnConfig(num_batches=4, rebid_rate=6.0, drift_rate=4.0),
            seed=5,
        )
        current = instance
        for delta in trace.deltas:
            current = apply_delta(current, delta).instance
        payload = current.to_dict()
        restored = IGEPAInstance.from_dict(payload)
        assert np.array_equal(restored.store.bid_si, current.store.bid_si)
        assert restored.to_dict() == payload
        assert index_parity_mismatches(restored.index, current.index) == []

    def test_unchurned_instance_saves_its_table(self):
        instance = tiny_instance()
        assert instance.to_dict()["interest"] == instance.interest.to_dict()

    def test_loaded_successor_reads_its_saved_table(self):
        """The merged table is the loaded instance's interest function: a
        re-weighted bid withdrawn and re-added without an entry reads the
        saved value after loading, the base table's on the saved instance."""
        from repro.model import IGEPAInstance

        current = apply_delta(
            tiny_instance(), Delta(interest=((1, 10, 0.25),))
        ).instance
        restored = IGEPAInstance.from_dict(current.to_dict())
        for delta in (Delta(remove_bids=((10, 1),)), Delta(add_bids=((10, 1),))):
            current = apply_delta(current, delta).instance
            restored = apply_delta(restored, delta).instance
        assert current.interest_of(1, 10) == 0.9
        assert restored.interest_of(1, 10) == 0.25

    def test_successor_saves_entries_on_bids_only(self):
        instance = tiny_instance()
        delta = Delta(interest=((1, 10, 0.25), (3, 10, 0.5)))  # 10 bids 1, not 3
        saved = apply_delta(instance, delta).instance.to_dict()["interest"]
        expected = instance.interest.items()
        expected[(1, 10)] = 0.25
        assert saved["values"] == [[e, u, v] for (e, u), v in sorted(expected.items())]
