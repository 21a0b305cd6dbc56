"""ColumnarStore unit tests: columns, views, spill, validation.

The columnar layer's contract is twofold: (1) the arrays describe exactly
the entities the instance was built from — ``from_entities`` round-trips
through views bit-perfectly — and (2) the façade views cost
O(1) memory each (``__slots__``, no ``__dict__``), so holding a handful of
them never re-creates the object layer the store exists to avoid.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.model.columnar import (
    ColumnarStore,
    EventColumn,
    EventView,
    IdViewMap,
    UserColumn,
    UserView,
)
from repro.model.entities import Event, User
from repro.model.errors import InstanceValidationError


def _small_store(**overrides) -> ColumnarStore:
    kwargs = dict(
        user_ids=[10, 11, 12],
        user_capacity=[1, 2, 0],
        event_ids=[100, 101],
        event_capacity=[5, 3],
        bid_indptr=[0, 2, 3, 3],
        bid_event_pos=[0, 1, 1],
        bid_si=[0.5, 0.25, 1.0],
        degrees=[0.0, 0.5, 1.0],
    )
    kwargs.update(overrides)
    return ColumnarStore(**kwargs)


def _entities():
    events = [
        Event(event_id=7, capacity=5, start_time=18.0, duration=2.0),
        Event(event_id=3, capacity=2, attributes=np.array([1.0, 0.5])),
        Event(event_id=9, capacity=4, categories=frozenset({"music"})),
    ]
    users = [
        User(user_id=1, capacity=2, bids=(9, 3)),
        User(user_id=4, capacity=1, bids=(7,), attributes=np.array([0.25])),
        User(user_id=2, capacity=3, categories=frozenset({"jazz", "folk"})),
    ]
    return users, events


class TestConstruction:
    def test_shapes_validated(self):
        with pytest.raises(ValueError, match="user_capacity length"):
            _small_store(user_capacity=[1, 2])
        with pytest.raises(ValueError, match="num_users \\+ 1"):
            _small_store(bid_indptr=[0, 2, 3])
        with pytest.raises(ValueError, match="does not cover"):
            _small_store(bid_indptr=[0, 1, 2, 2])
        with pytest.raises(ValueError, match="bid_si length"):
            _small_store(bid_si=[0.5])
        with pytest.raises(ValueError, match="degrees length"):
            _small_store(degrees=[0.5])
        with pytest.raises(ValueError, match="set together"):
            _small_store(event_start=[1.0, 2.0])

    def test_sizes(self):
        store = _small_store()
        assert store.num_users == 3
        assert store.num_events == 2
        assert store.num_bids == 3
        assert store.user_pos == {10: 0, 11: 1, 12: 2}
        assert store.event_pos == {100: 0, 101: 1}

    def test_from_entities_round_trips_every_field(self):
        users, events = _entities()
        store = ColumnarStore.from_entities(users, events)
        assert [UserView(store, i) for i in range(3)] == users
        assert [EventView(store, j) for j in range(3)] == events
        # Bids keep the user's bid-list order, mapped through event ids that
        # are deliberately not positions here.
        assert store.user_bids(0) == (9, 3)
        assert store.user_bids(1) == (7,)
        assert store.user_bids(2) == ()

    def test_from_entities_dangling_bid_message(self):
        users = [User(user_id=1, capacity=1, bids=(7, 99))]
        events = [Event(event_id=7, capacity=1)]
        with pytest.raises(
            InstanceValidationError, match=r"user 1 bids for unknown events \[99\]"
        ):
            ColumnarStore.from_entities(users, events)

    def test_from_entities_degrees_packed_in_user_order(self):
        users, events = _entities()
        store = ColumnarStore.from_entities(
            users, events, degrees={4: 0.75, 1: 0.5}
        )
        np.testing.assert_array_equal(store.degrees, [0.5, 0.75, 0.0])


class TestViews:
    def test_views_have_no_dict(self):
        store = _small_store()
        user = store.user(0)
        event = store.event(0)
        assert not hasattr(user, "__dict__")
        assert not hasattr(event, "__dict__")
        assert "__dict__" not in dir(UserView)

    def test_view_memory_is_o1(self):
        # The regression the __slots__ design guards: a view's footprint is a
        # couple of pointers, independent of the store size, and far below a
        # dataclass entity with its __dict__, attribute array and bid tuple.
        small = _small_store()
        big = _small_store(
            user_ids=np.arange(10_000),
            user_capacity=np.ones(10_000, dtype=np.int64),
            bid_indptr=np.zeros(10_001, dtype=np.int64),
            bid_event_pos=[],
            bid_si=[],
            degrees=np.zeros(10_000),
        )
        assert sys.getsizeof(small.user(0)) == sys.getsizeof(big.user(0))
        assert sys.getsizeof(small.user(0)) <= 64

    def test_views_are_immutable(self):
        store = _small_store()
        with pytest.raises(AttributeError, match="immutable"):
            store.user(0).capacity = 5
        with pytest.raises(AttributeError, match="immutable"):
            store.event(0).capacity = 5

    def test_duck_equality_and_hash_with_dataclasses(self):
        users, events = _entities()
        store = ColumnarStore.from_entities(users, events)
        view = UserView(store, 0)
        assert view == users[0]
        assert users[0] == view  # reflected: dataclass defers to the view
        assert hash(view) == hash(users[0])
        assert view in {users[0]}
        assert EventView(store, 1) == events[1]
        assert hash(EventView(store, 1)) == hash(events[1])
        assert view != users[1]
        assert view != "not a user"
        assert EventView(store, 0) != events[1]

    def test_temporal_fields(self):
        users, events = _entities()
        store = ColumnarStore.from_entities(users, events)
        view = EventView(store, 0)
        assert view.start_time == 18.0
        assert view.duration == 2.0
        assert view.end_time == 20.0
        bare = EventView(store, 1)
        assert bare.start_time is None and bare.end_time is None

    def test_columns_support_sequence_protocol(self):
        store = _small_store()
        users = UserColumn(store)
        events = EventColumn(store)
        assert len(users) == 3 and len(events) == 2
        assert users[0].user_id == 10
        assert users[-1].user_id == 12
        assert [u.user_id for u in users] == [10, 11, 12]
        assert [u.user_id for u in users[1:]] == [11, 12]
        with pytest.raises(IndexError):
            users[3]
        assert [e.event_id for e in events] == [100, 101]

    def test_id_view_map(self):
        store = _small_store()
        mapping = IdViewMap(store, "user")
        assert len(mapping) == 3
        assert mapping[11].capacity == 2
        assert 11 in mapping and 99 not in mapping
        assert list(mapping) == [10, 11, 12]
        with pytest.raises(KeyError):
            mapping[99]
        # keys() must be a native dict view so `set &= keys()` stays a set.
        touched = {10, 12, 99}
        touched &= mapping.keys()
        assert touched == {10, 12}


class TestSpill:
    def test_spill_round_trip(self, tmp_path):
        store = _small_store()
        before = {
            name: np.asarray(getattr(store, name)).copy()
            for name in ("user_ids", "user_capacity", "bid_event_pos", "bid_si")
        }
        written = store.spill(tmp_path)
        assert written > 0
        assert store.spilled_bytes == written
        for name, expected in before.items():
            column = getattr(store, name)
            assert isinstance(column, np.memmap)
            np.testing.assert_array_equal(column, expected)
        assert store.user_bids(0) == (100, 101)
        # Idempotent: a second spill moves nothing.
        assert store.spill(tmp_path) == 0
        assert store.spilled_bytes == written

    def test_maybe_spill_respects_budget(self, tmp_path):
        store = _small_store()
        assert store.maybe_spill(1 << 30, tmp_path) == 0
        assert store.spilled_bytes == 0
        assert store.maybe_spill(0, tmp_path) > 0
        assert isinstance(store.user_ids, np.memmap)

    def test_spilled_arrays_excluded_from_nbytes(self, tmp_path):
        store = _small_store()
        resident_before = store.nbytes
        store.spill(tmp_path)
        assert store.nbytes < resident_before


class TestValidation:
    def test_valid_store_passes(self):
        _small_store().validate()

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            ({"user_ids": [10, 10, 12]}, "duplicate user ids"),
            ({"event_ids": [100, 100]}, "duplicate event ids"),
            ({"user_capacity": [1, -1, 0]}, "capacity must be >= 0"),
            ({"event_capacity": [5, -3]}, "capacity must be >= 0"),
            ({"bid_event_pos": [0, 5, 1]}, "out of range"),
            (
                {"bid_event_pos": [0, 0, 1], "bid_si": [0.5, 0.5, 1.0]},
                "duplicate bids",
            ),
            ({"bid_si": [0.5, 1.5, 1.0]}, r"outside \[0, 1\]"),
            ({"degrees": [0.0, 2.0, 1.0]}, r"degree overrides outside \[0, 1\]"),
        ],
    )
    def test_violations_raise(self, overrides, message):
        store = _small_store(**overrides)
        with pytest.raises(InstanceValidationError, match=message):
            store.validate()

    def test_non_monotone_indptr(self):
        store = _small_store()
        store.bid_indptr = np.array([0, 2, 1, 3], dtype=np.int64)
        with pytest.raises(InstanceValidationError, match="monotone"):
            store.validate()
