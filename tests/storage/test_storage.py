"""Unit tests for the storage substrate (stores, buffers, index)."""

import pytest

from repro.errors import StorageError
from repro.geometry import Rectangle
from repro.storage import (
    DiscardedStore,
    QueryResultBuffer,
    SpatioTemporalIndex,
    TupleStore,
)
from repro.streams import SensorTuple, TupleBatch

REGION = Rectangle(0, 0, 4, 4)


def make_tuple(tuple_id=0, attribute="rain", t=0.0, x=0.5, y=0.5, value=None):
    return SensorTuple(tuple_id=tuple_id, attribute=attribute, t=t, x=x, y=y, value=value)


class TestSpatioTemporalIndex:
    def test_insert_and_query(self):
        index = SpatioTemporalIndex(REGION, nx=4, ny=4)
        index.insert(make_tuple(x=0.5, y=0.5))
        index.insert(make_tuple(x=3.5, y=3.5))
        hits = index.query(Rectangle(0, 0, 1, 1))
        assert len(hits) == 1
        assert index.count == 2

    def test_query_filters_by_time_and_attribute(self):
        index = SpatioTemporalIndex(REGION)
        index.insert(make_tuple(t=1.0, attribute="rain"))
        index.insert(make_tuple(t=5.0, attribute="temp"))
        assert len(index.query(Rectangle(0, 0, 4, 4), t_start=0.0, t_end=2.0)) == 1
        assert len(index.query(Rectangle(0, 0, 4, 4), attribute="temp")) == 1

    def test_results_sorted_by_time(self):
        index = SpatioTemporalIndex(REGION)
        index.insert(make_tuple(t=3.0))
        index.insert(make_tuple(t=1.0))
        times = [item.t for item in index.query(Rectangle(0, 0, 4, 4))]
        assert times == [1.0, 3.0]

    def test_invalid_grid(self):
        with pytest.raises(StorageError):
            SpatioTemporalIndex(REGION, nx=0)

    def test_clear(self):
        index = SpatioTemporalIndex(REGION)
        index.insert_many([make_tuple(tuple_id=i) for i in range(3)])
        index.clear()
        assert index.count == 0
        assert index.query(Rectangle(0, 0, 4, 4)) == []


class TestTupleStore:
    def test_insert_and_len(self):
        store = TupleStore()
        store.insert_many([make_tuple(tuple_id=i) for i in range(5)])
        assert len(store) == 5
        assert store.stats().inserted_total == 5

    def test_capacity_evicts_fifo(self):
        store = TupleStore(capacity=3)
        for i in range(5):
            store.insert(make_tuple(tuple_id=i, t=float(i)))
        assert len(store) == 3
        assert [item.tuple_id for item in store.all()] == [2, 3, 4]
        assert store.stats().evicted_total == 2

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            TupleStore(capacity=0)

    def test_attribute_and_time_filters(self):
        store = TupleStore()
        store.insert(make_tuple(attribute="rain", t=1.0))
        store.insert(make_tuple(attribute="temp", t=2.0))
        assert len(store.for_attribute("rain")) == 1
        assert len(store.in_time_window(1.5, 3.0)) == 1
        with pytest.raises(StorageError):
            store.in_time_window(3.0, 1.0)

    def test_in_rectangle_without_index(self):
        store = TupleStore()
        store.insert(make_tuple(x=0.5, y=0.5))
        store.insert(make_tuple(x=3.5, y=3.5))
        assert len(store.in_rectangle(Rectangle(0, 0, 1, 1))) == 1

    def test_in_rectangle_with_index(self):
        store = TupleStore(region=REGION)
        store.insert(make_tuple(x=0.5, y=0.5, attribute="rain"))
        store.insert(make_tuple(x=3.5, y=3.5, attribute="temp"))
        hits = store.in_rectangle(Rectangle(0, 0, 1, 1))
        assert len(hits) == 1
        assert hits[0].attribute == "rain"

    def test_clear_keeps_statistics(self):
        store = TupleStore()
        store.insert(make_tuple())
        store.clear()
        assert len(store) == 0
        assert store.stats().inserted_total == 1

    def test_stats_attributes(self):
        store = TupleStore()
        store.insert(make_tuple(attribute="rain"))
        store.insert(make_tuple(attribute="temp"))
        assert store.stats().attributes == ("rain", "temp")


class TestQueryResultBuffer:
    def make_buffer(self, rate=10.0, area=4.0):
        return QueryResultBuffer(1, requested_rate=rate, region_area=area)

    @staticmethod
    def deliver(buffer, tuple_ids):
        buffer.extend_batch(
            TupleBatch.from_tuples([make_tuple(tuple_id=i, value=1.0) for i in tuple_ids])
        )

    def test_validation(self):
        with pytest.raises(StorageError):
            QueryResultBuffer(1, requested_rate=0.0, region_area=1.0)
        with pytest.raises(StorageError):
            QueryResultBuffer(1, requested_rate=1.0, region_area=0.0)

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

    def test_rate_over(self):
        buffer = self.make_buffer(rate=10.0, area=2.0)
        self.deliver(buffer, range(40))
        estimate = buffer.rate_over(2.0)
        assert estimate.achieved_rate == pytest.approx(10.0)
        assert estimate.relative_error == pytest.approx(0.0)

    def test_rate_over_batches(self):
        buffer = self.make_buffer(rate=5.0, area=1.0)
        for batch in range(4):
            self.deliver(buffer, range(batch * 10, batch * 10 + 5))
            buffer.end_batch()
        estimate = buffer.rate_over_batches(1.0)
        assert estimate.achieved_rate == pytest.approx(5.0)
        last_two = buffer.rate_over_batches(1.0, last=2)
        assert last_two.tuples == 10

    def test_rate_over_batches_requires_history(self):
        with pytest.raises(StorageError):
            self.make_buffer().rate_over_batches(1.0)

    def test_rate_over_batches_rejects_non_positive_last(self):
        # Regression: last=0 used to slice [-0:] — the whole history — and
        # silently report the lifetime rate instead of a recent window.
        buffer = self.make_buffer(rate=5.0, area=1.0)
        self.deliver(buffer, range(5))
        buffer.end_batch()
        with pytest.raises(StorageError):
            buffer.rate_over_batches(1.0, last=0)
        with pytest.raises(StorageError):
            buffer.rate_over_batches(1.0, last=-2)

    def test_values_and_event_batch(self):
        buffer = self.make_buffer()
        assert buffer.values() == [] and len(buffer.to_event_batch()) == 0
        buffer.extend_batch(TupleBatch.from_tuples([make_tuple(value=1.5, t=1.0)]))
        buffer.extend_batch(TupleBatch.from_tuples([make_tuple(value=2.5, t=2.0)]))
        assert buffer.values() == [1.5, 2.5]
        assert buffer.to_event_batch().t.tolist() == [1.0, 2.0]


class TestDiscardedStore:
    def test_record_and_counts(self):
        store = DiscardedStore()
        store.record("F:rain", make_tuple())
        store.record("F:rain", make_tuple(tuple_id=2))
        store.record("T:temp", make_tuple(tuple_id=3))
        assert store.total_discarded == 3
        assert store.counts() == {"F:rain": 2, "T:temp": 1}
        assert set(store.operators) == {"F:rain", "T:temp"}

    def test_subscriber_callback(self):
        store = DiscardedStore()
        callback = store.subscriber_for("F:rain")
        callback(make_tuple())
        assert store.counts()["F:rain"] == 1

    def test_capacity_per_operator(self):
        store = DiscardedStore(capacity_per_operator=2)
        for i in range(5):
            store.record("op", make_tuple(tuple_id=i))
        assert len(store.for_operator("op")) == 2
        assert store.total_discarded == 5

    def test_validation(self):
        with pytest.raises(StorageError):
            DiscardedStore(capacity_per_operator=0)
        with pytest.raises(StorageError):
            DiscardedStore().record("", make_tuple())

    def test_unknown_operator_returns_empty(self):
        assert DiscardedStore().for_operator("missing") == []
