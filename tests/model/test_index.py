"""Unit tests for the array-backed InstanceIndex."""

import numpy as np
import pytest

from repro.model import (
    Event,
    IGEPAInstance,
    InstanceIndex,
    InstanceValidationError,
    NoConflict,
    TabulatedInterest,
    User,
)
from repro.social import Graph
from tests.util import random_instance, tiny_instance


class TestConstruction:
    def test_lazily_built_and_cached(self):
        instance = tiny_instance()
        assert instance._index is None
        index = instance.index
        assert isinstance(index, InstanceIndex)
        assert instance.index is index

    def test_index_does_not_keep_its_instance_alive(self):
        """The back-reference is weak: dropping the instance frees it and
        its index at once, without waiting for the cycle collector."""
        import gc
        import weakref

        instance = random_instance(seed=1)
        index = instance.index
        assert index.instance is instance
        instance_ref = weakref.ref(instance)
        gc.disable()
        try:
            del instance
            assert instance_ref() is None
            with pytest.raises(ReferenceError):
                index.instance
            index_ref = weakref.ref(index)
            del index
            assert index_ref() is None
        finally:
            gc.enable()

    def test_shapes(self):
        index = tiny_instance().index
        assert index.num_users == 4
        assert index.num_events == 3
        assert index.num_bids == 7
        assert index.W.shape == (4, 3)
        assert index.SI.shape == (4, 3)
        assert index.bid_mask.shape == (4, 3)
        assert index.conflict_matrix.shape == (3, 3)
        assert index.bid_indptr.shape == (5,)
        assert index.bid_indices.shape == (7,)
        assert index.bid_weights.shape == (7,)

    def test_position_maps_invert_id_arrays(self):
        index = tiny_instance().index
        for user_id, position in index.user_pos.items():
            assert index.user_ids[position] == user_id
        for event_id, position in index.event_pos.items():
            assert index.event_ids[position] == event_id

    def test_empty_instance(self):
        instance = IGEPAInstance([], [], NoConflict(), TabulatedInterest({}), Graph())
        index = instance.index
        assert index.num_users == 0
        assert index.num_events == 0
        assert index.num_bids == 0
        assert index.W.shape == (0, 0)

    def test_invalid_interest_rejected_at_build(self):
        class Bad(TabulatedInterest):
            def interest(self, event, user):
                return 2.0

        # The constructor fills the store's SI column, so it rejects.
        with pytest.raises(InstanceValidationError, match="Definition 5"):
            IGEPAInstance(
                [Event(event_id=1, capacity=1)],
                [User(user_id=1, capacity=1, bids=(1,))],
                NoConflict(),
                Bad({}),
                Graph(nodes=[1]),
            )


class TestContent:
    def test_weight_matrix_masked_by_bids(self):
        instance = tiny_instance()
        index = instance.index
        for i, user in enumerate(instance.users):
            for j, event in enumerate(instance.events):
                if event.event_id in user.bid_set:
                    assert index.bid_mask[i, j]
                    assert index.W[i, j] == instance.weight(
                        user.user_id, event.event_id
                    )
                    assert index.SI[i, j] == instance.interest_of(
                        event.event_id, user.user_id
                    )
                else:
                    assert not index.bid_mask[i, j]
                    assert index.W[i, j] == 0.0

    def test_csr_matches_bid_lists(self):
        instance = tiny_instance()
        index = instance.index
        for i, user in enumerate(instance.users):
            positions = index.user_bid_positions(i)
            assert [int(index.event_ids[p]) for p in positions] == list(user.bids)
            weights = index.user_bid_weights(i)
            for position, weight in zip(positions, weights):
                assert weight == index.W[i, position]

    def test_bidder_incidence_matches_bidders(self):
        instance = tiny_instance()
        index = instance.index
        for j, event in enumerate(instance.events):
            bidders = index.user_ids[index.event_bidder_positions(j)].tolist()
            assert bidders == instance.bidders(event.event_id)

    def test_conflict_matrix_symmetric_zero_diagonal(self):
        index = tiny_instance().index
        matrix = index.conflict_matrix
        assert np.array_equal(matrix, matrix.T)
        assert not matrix.diagonal().any()
        assert index.conflict_pair_count() == 1  # events (1, 2)

    def test_degrees_match_scalar_accessor(self):
        instance = tiny_instance()
        index = instance.index
        for i, user in enumerate(instance.users):
            assert index.degrees[i] == instance.degree(user.user_id)

    def test_degrees_override_respected(self):
        events = [Event(event_id=1, capacity=1)]
        users = [User(user_id=1, capacity=1, bids=(1,)), User(user_id=2, capacity=1)]
        instance = IGEPAInstance(
            events,
            users,
            NoConflict(),
            TabulatedInterest({(1, 1): 0.5}),
            Graph(nodes=[1, 2], edges=[(1, 2)]),
            degrees={1: 0.25},
        )
        index = instance.index
        assert index.degrees[0] == 0.25
        assert index.degrees[1] == 0.0  # override wins over the graph edge

    def test_weight_by_event_id_dict(self):
        instance = tiny_instance()
        index = instance.index
        weight_of = index.user_weight_by_event_id(0)  # user 10, bids (1, 2)
        assert set(weight_of) == {1, 2}
        assert weight_of[1] == instance.weight(10, 1)

    def test_scalar_weight_view(self):
        instance = tiny_instance()
        index = instance.index
        # Bid pair: the scalar accessor reads the masked matrix.
        assert instance.weight(10, 1) == index.W[index.user_pos[10], index.event_pos[1]]
        # Non-bid pair (user 12 did not bid for event 1): masked to 0 in W,
        # but the scalar accessor recomputes it via the formula.
        assert index.W[index.user_pos[12], index.event_pos[1]] == 0.0
        assert instance.weight(12, 1) == pytest.approx(
            instance.beta * instance.interest_of(1, 12)
            + (1 - instance.beta) * instance.degree(12)
        )
        assert instance.weight(12, 1) != 0.0  # degree term keeps it positive


class TestRandomizedProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_weight_matrix_parity_on_random_instances(self, seed):
        instance = random_instance(seed=seed)
        index = instance.index
        for i, user in enumerate(instance.users):
            for event_id in user.bids:
                j = index.event_pos[event_id]
                assert index.W[i, j] == instance.weight(user.user_id, event_id)

    @pytest.mark.parametrize("seed", range(5))
    def test_conflict_matrix_parity(self, seed):
        instance = random_instance(seed=seed, conflict_probability=0.5)
        index = instance.index
        for a in instance.events:
            for b in instance.events:
                i, j = index.event_pos[a.event_id], index.event_pos[b.event_id]
                expected = (
                    False
                    if a.event_id == b.event_id
                    else instance.conflict.conflicts(a, b)
                )
                assert bool(index.conflict_matrix[i, j]) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_bid_weights_align_with_csr(self, seed):
        instance = random_instance(seed=seed)
        index = instance.index
        upos = np.repeat(
            np.arange(index.num_users), np.diff(index.bid_indptr)
        )
        assert np.array_equal(
            index.bid_weights, index.W[upos, index.bid_indices]
        )


class TestConflictBits:
    """``conflict_bits``: σ as one Python int per event position."""

    @staticmethod
    def _assert_matches_matrix(index):
        matrix = index.conflict_matrix
        assert len(index.conflict_bits) == index.num_events
        for v, bits in enumerate(index.conflict_bits):
            assert bits >> index.num_events == 0
            assert [bool(bits >> p & 1) for p in range(index.num_events)] == (
                matrix[v].tolist()
            )

    @pytest.mark.parametrize("sharded", [False, True])
    def test_bits_match_the_matrix(self, sharded):
        for seed in range(4):
            instance = random_instance(seed=seed, num_events=70)
            instance.configure_index(sharded=sharded)
            self._assert_matches_matrix(instance.index)

    @pytest.mark.parametrize("sharded", [False, True])
    def test_patched_bits_equal_a_fresh_build_after_churn(self, sharded):
        """Conflict toggles, event openings and closings, batch after batch."""
        from repro.datagen import (
            ChurnConfig,
            SyntheticConfig,
            generate_churn_trace,
            generate_synthetic,
        )
        from repro.model.delta import fresh_index_like, index_parity_mismatches
        from repro.model.delta import apply_delta

        instance = generate_synthetic(
            SyntheticConfig(num_users=120, num_events=24), seed=5
        )
        instance.configure_index(sharded=sharded)
        trace = generate_churn_trace(
            instance,
            ChurnConfig(
                num_batches=6,
                event_open_rate=2.0,
                event_close_rate=2.0,
                conflict_toggle_rate=6.0,
            ),
            seed=6,
        )
        toggled = opened_or_closed = 0
        for delta in trace.deltas:
            toggled += len(delta.add_conflicts) + len(delta.remove_conflicts)
            opened_or_closed += len(delta.add_events) + len(delta.remove_events)
            instance = apply_delta(instance, delta).instance
            patched = instance.index
            fresh = fresh_index_like(patched, instance)
            assert patched.conflict_bits == fresh.conflict_bits
            assert index_parity_mismatches(patched, fresh) == []
            self._assert_matches_matrix(patched)
        assert toggled and opened_or_closed

    def test_parity_check_reports_a_flipped_bit(self):
        from repro.model.delta import fresh_index_like, index_parity_mismatches

        instance = random_instance(seed=2)
        patched = fresh_index_like(instance.index, instance)
        bits = list(patched.conflict_bits)
        bits[1] ^= 1 << 3
        patched.conflict_bits = tuple(bits)
        assert index_parity_mismatches(patched, instance.index) == ["conflict_bits"]
