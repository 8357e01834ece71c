"""Unit tests for the storage substrate (stores and buffers)."""

import pytest

from repro.errors import StorageError
from repro.storage import DiscardedStore, QueryResultBuffer, TupleStore
from repro.streams import SensorTuple, TupleBatch
from scaffolding import batch_of, session_handle


def make_tuple(tuple_id=0, attribute="rain", t=0.0, x=0.5, y=0.5, value=None):
    return SensorTuple(tuple_id=tuple_id, attribute=attribute, t=t, x=x, y=y, value=value)


class TestTupleStore:
    def test_insert_and_len(self):
        store = TupleStore()
        for i in range(5):
            store.insert(make_tuple(tuple_id=i))
        assert len(store) == 5

    def test_capacity_evicts_fifo(self):
        store = TupleStore(capacity=3)
        for i in range(5):
            store.insert(make_tuple(tuple_id=i, t=float(i)))
        assert len(store) == 3
        assert [item.tuple_id for item in store._items] == [2, 3, 4]

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            TupleStore(capacity=0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(StorageError):
            TupleStore(capacity=-3)

    def test_an_unbounded_store_keeps_every_tuple_in_arrival_order(self):
        store = TupleStore()
        for i in range(1000):
            store.insert(make_tuple(tuple_id=i))
        assert len(store) == 1000
        assert [item.tuple_id for item in store._items] == list(range(1000))

    def test_capacity_one_keeps_only_the_latest(self):
        store = TupleStore(capacity=1)
        for i in range(4):
            store.insert(make_tuple(tuple_id=i))
            assert [item.tuple_id for item in store._items] == [i]


class TestQueryResultBuffer:
    def make_buffer(self):
        return QueryResultBuffer(1)

    @staticmethod
    def deliver(buffer, tuple_ids):
        buffer.extend_batch(
            batch_of([make_tuple(tuple_id=i, value=1.0) for i in tuple_ids])
        )

    def test_deliveries_and_batches(self):
        buffer = self.make_buffer()
        self.deliver(buffer, range(3))
        self.deliver(buffer, range(3, 5))
        buffer.extend_batch(TupleBatch.empty())  # an empty delivery is no chunk
        assert buffer.end_batch() == 5
        self.deliver(buffer, [6])
        assert buffer.end_batch() == 1
        assert buffer.per_batch_counts == [5, 1]
        assert buffer.total_tuples == len(buffer) == 6
        assert buffer.cursor(tail=True).position == (3, 0)

    def test_tuples_over_batches(self):
        buffer = self.make_buffer()
        for batch in range(4):
            self.deliver(buffer, range(batch * 10, batch * 10 + 5))
            buffer.end_batch()
        assert buffer.tuples_over_batches() == (20, 4)
        assert buffer.tuples_over_batches(last=2) == (10, 2)

    def test_achieved_rate_divides_by_the_querys_area_and_duration(self):
        handle = session_handle(5.0, 1.0)
        for batch in range(4):
            self.deliver(handle.buffer, range(batch * 10, batch * 10 + 5))
            handle.buffer.end_batch()
        estimate = handle.achieved_rate()
        assert estimate.achieved_rate == pytest.approx(5.0)
        assert (estimate.requested_rate, estimate.area) == (5.0, 1.0)
        assert handle.achieved_rate(last_batches=2).tuples == 10

    def test_tuples_over_batches_requires_history(self):
        with pytest.raises(StorageError):
            self.make_buffer().tuples_over_batches()

    def test_tuples_over_batches_rejects_non_positive_last(self):
        # Regression: last=0 used to slice [-0:] — the whole history — and
        # silently report the lifetime rate instead of a recent window.
        buffer = self.make_buffer()
        self.deliver(buffer, range(5))
        buffer.end_batch()
        with pytest.raises(StorageError):
            buffer.tuples_over_batches(last=0)
        with pytest.raises(StorageError):
            buffer.tuples_over_batches(last=-2)

    def test_values(self):
        buffer = self.make_buffer()
        assert buffer.values() == []
        buffer.extend_batch(batch_of([make_tuple(value=1.5, t=1.0)]))
        buffer.extend_batch(batch_of([make_tuple(value=2.5, t=2.0)]))
        assert buffer.values() == [1.5, 2.5]
        assert [item.t for item in buffer.items()] == [1.0, 2.0]


class TestDiscardedStore:
    def test_record_and_counts(self):
        store = DiscardedStore()
        store.record("F:rain", make_tuple())
        store.record("F:rain", make_tuple(tuple_id=2))
        store.record("T:temp", make_tuple(tuple_id=3))
        assert store.counts() == {"F:rain": 2, "T:temp": 1}

    def test_capacity_per_operator(self):
        store = DiscardedStore(capacity_per_operator=2)
        for i in range(5):
            store.record("op", make_tuple(tuple_id=i))
        assert store.counts() == {"op": 2}

    def test_validation(self):
        with pytest.raises(StorageError):
            DiscardedStore(capacity_per_operator=0)
        with pytest.raises(StorageError):
            DiscardedStore().record("", make_tuple())

    def test_operators_are_capped_independently(self):
        store = DiscardedStore(capacity_per_operator=3)
        for i in range(5):
            store.record("F:rain", make_tuple(tuple_id=i))
        store.record("F:temp", make_tuple(tuple_id=9))
        assert store.counts() == {"F:rain": 3, "F:temp": 1}

    def test_empty_store_counts_nothing(self):
        assert DiscardedStore().counts() == {}
