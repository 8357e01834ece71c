"""Unit tests for the session-consumption surface of QueryResultBuffer.

Covers the resumable cursor (object and columnar reads over the chunk
list), push subscriptions, bounded retention with exact running totals,
the eviction errors a lagging consumer must receive, and that whole-history
reads (``results()``) leave storage — and so every other reader — untouched.
"""

import itertools

import numpy as np
import pytest

from repro import AcquisitionalQuery, CraqrEngine, RateSpec
from repro.errors import StorageError
from repro.geometry import Rectangle
from repro.storage import QueryResultBuffer
from repro.streams import TupleBatch
from repro.streams.codec import encode_tuple_batch
from repro.workloads import build_rain_temperature_world, default_engine_config


def make_batch(start, count, attribute="rain"):
    ids = np.arange(start, start + count, dtype=np.int64)
    return TupleBatch(
        attribute,
        ids * 1.0,
        ids * 0.1,
        ids * 0.2,
        ids * 2.0,
        ids,
        ids,
    )


def make_buffer(**kwargs):
    kwargs.setdefault("requested_rate", 10.0)
    kwargs.setdefault("region_area", 4.0)
    return QueryResultBuffer(1, **kwargs)


class TestCursorReads:
    def test_cursor_catches_up_then_reads_incrementally(self):
        buffer = make_buffer()
        buffer.extend_batch(make_batch(0, 5))
        cursor = buffer.cursor()
        assert [item.tuple_id for item in cursor.fetch()] == [0, 1, 2, 3, 4]
        assert cursor.fetch() == []
        buffer.extend_batch(make_batch(5, 3))
        assert [item.tuple_id for item in cursor.fetch()] == [5, 6, 7]

    def test_tail_cursor_skips_existing_history(self):
        buffer = make_buffer()
        buffer.extend_batch(make_batch(0, 5))
        cursor = buffer.cursor(tail=True)
        assert cursor.pending == 0
        buffer.extend_batch(make_batch(5, 2))
        assert [item.tuple_id for item in cursor.fetch()] == [5, 6]

    def test_fetch_batch_equals_fetch_objects(self):
        buffer = make_buffer()
        buffer.extend_batch(make_batch(0, 4))
        buffer.extend_batch(make_batch(4, 2))
        buffer.extend_batch(make_batch(6, 2))
        object_cursor = buffer.cursor()
        batch_cursor = buffer.cursor()
        via_objects = object_cursor.fetch()
        via_batch = batch_cursor.fetch_batch().to_tuples()
        assert [item.tuple_id for item in via_batch] == [
            item.tuple_id for item in via_objects
        ] == list(range(8))

    def test_fetch_batch_empty_when_nothing_pending(self):
        buffer = make_buffer()
        cursor = buffer.cursor()
        assert len(cursor.fetch_batch()) == 0
        buffer.extend_batch(make_batch(0, 2))
        cursor.fetch_batch()
        assert len(cursor.fetch_batch()) == 0

    @pytest.mark.parametrize("history", [200, 2000])
    def test_tail_read_touches_only_the_new_chunks(self, monkeypatch, history):
        """O(new), as a count: a caught-up cursor hands ``concatenate`` the
        fresh chunks and nothing else, however long the retained history."""
        buffer = make_buffer()
        for i in range(history):
            buffer.extend_batch(make_batch(i, 1))
        cursor = buffer.cursor(tail=True)
        fresh = 3
        for i in range(history, history + fresh):
            buffer.extend_batch(make_batch(i, 1))

        handed = []
        concatenate = TupleBatch.concatenate

        def counting(batches):
            handed.append(list(batches))
            return concatenate(handed[-1])

        monkeypatch.setattr(TupleBatch, "concatenate", counting)
        batch = cursor.fetch_batch()
        assert [len(parts) for parts in handed] == [fresh]
        assert batch.tuple_id.tolist() == list(range(history, history + fresh))

    def test_cursor_iteration_drains_pending(self):
        buffer = make_buffer()
        buffer.extend_batch(make_batch(0, 3))
        cursor = buffer.cursor()
        assert [item.tuple_id for item in cursor] == [0, 1, 2]
        assert list(cursor) == []

    def test_pending_and_consumed_counters(self):
        buffer = make_buffer()
        buffer.extend_batch(make_batch(0, 4))
        cursor = buffer.cursor()
        assert cursor.pending == 4 and cursor.consumed == 0
        cursor.fetch()
        assert cursor.pending == 0 and cursor.consumed == 4

    def test_cursor_unaffected_by_items_materialisation(self):
        buffer = make_buffer()
        buffer.extend_batch(make_batch(0, 3))
        cursor = buffer.cursor()
        buffer.items()  # hands out copies; storage keeps the batch
        assert [item.tuple_id for item in cursor.fetch()] == [0, 1, 2]


class TestCursorEviction:
    def test_lagging_cursor_raises_after_retention_eviction(self):
        buffer = make_buffer(retention_batches=2)
        cursor = buffer.cursor()
        for start in range(0, 40, 10):
            buffer.extend_batch(make_batch(start, 10))
            buffer.end_batch()
        with pytest.raises(StorageError, match="evicted"):
            cursor.fetch()

    def test_cursor_within_window_survives_eviction(self):
        buffer = make_buffer(retention_batches=2)
        buffer.extend_batch(make_batch(0, 10))
        buffer.end_batch()
        cursor = buffer.cursor(tail=True)
        for start in (10, 20):
            buffer.extend_batch(make_batch(start, 10))
            buffer.end_batch()
        assert [item.tuple_id for item in cursor.fetch()] == list(range(10, 30))

    def test_mid_batch_read_survives_eviction_of_what_it_consumed(self):
        # A chunk is closed at the delivery that created it, so a cursor
        # that read mid-batch sits *past* it: evicting that fully-consumed
        # chunk must not invalidate the cursor, and the rest of the batch
        # (a later chunk) is still delivered exactly once.
        buffer = make_buffer(retention_batches=1)
        buffer.extend_batch(make_batch(0, 2))
        cursor = buffer.cursor()
        assert [item.tuple_id for item in cursor.fetch()] == [0, 1]  # mid-batch read
        assert cursor.position == (1, 0)
        buffer.extend_batch(make_batch(2, 1))
        buffer.end_batch()
        assert [item.tuple_id for item in cursor.fetch()] == [2]
        buffer.extend_batch(make_batch(3, 1))
        buffer.end_batch()  # evicts both chunks the cursor has consumed
        assert [item.tuple_id for item in cursor.fetch()] == [3]


class TestSubscriptions:
    def test_subscriber_fires_once_per_batch_with_new_tuples(self):
        buffer = make_buffer()
        received = []
        buffer.subscribe(lambda batch: received.append(batch))
        buffer.extend_batch(make_batch(0, 3))
        buffer.extend_batch(make_batch(3, 2))
        assert received == []  # nothing until the batch closes
        buffer.end_batch()
        assert len(received) == 1
        assert [t.tuple_id for t in received[0].to_tuples()] == [0, 1, 2, 3, 4]
        buffer.end_batch()  # empty batch: no callback
        assert len(received) == 1

    def test_multiple_subscribers_and_cancel(self):
        buffer = make_buffer()
        first, second = [], []
        subscription = buffer.subscribe(lambda batch: first.append(len(batch)))
        buffer.subscribe(lambda batch: second.append(len(batch)))
        buffer.extend_batch(make_batch(0, 2))
        buffer.end_batch()
        assert subscription.active
        subscription.cancel()
        assert not subscription.active
        subscription.cancel()  # idempotent
        buffer.extend_batch(make_batch(2, 3))
        buffer.end_batch()
        assert first == [2]
        assert second == [2, 3]

    def test_mid_batch_subscription_sees_only_later_deliveries(self):
        buffer = make_buffer()
        buffer.extend_batch(make_batch(0, 4))
        received = []
        buffer.subscribe(lambda batch: received.append(batch))
        buffer.extend_batch(make_batch(4, 2))
        buffer.end_batch()
        assert list(received[0].tuple_id) == [4, 5]

    def test_non_callable_subscriber_rejected(self):
        with pytest.raises(StorageError):
            make_buffer().subscribe("not callable")


class TestRetentionAccounting:
    def run_batches(self, buffer, batches, per_batch=10):
        start = buffer.total_tuples
        for _ in range(batches):
            buffer.extend_batch(make_batch(start, per_batch))
            buffer.end_batch()
            start += per_batch

    def test_retained_window_is_bounded(self):
        buffer = make_buffer(retention_batches=3)
        self.run_batches(buffer, 10)
        assert len(buffer) == 30
        assert buffer.per_batch_counts == [10, 10, 10]
        assert buffer.batches_completed == 10
        assert buffer.total_tuples == 100
        assert buffer.evicted_tuples == 70

    def test_whole_history_rate_is_exact_after_eviction(self):
        buffer = make_buffer(retention_batches=3)
        self.run_batches(buffer, 10)
        estimate = buffer.rate_over_batches(2.0)
        assert estimate.tuples == 100
        assert estimate.duration == 20.0
        assert estimate.achieved_rate == pytest.approx(100 / (4.0 * 20.0))

    def test_windowed_rate_within_retention(self):
        buffer = make_buffer(retention_batches=3)
        self.run_batches(buffer, 10)
        estimate = buffer.rate_over_batches(1.0, last=2)
        assert estimate.tuples == 20

    def test_windowed_rate_beyond_retention_raises(self):
        buffer = make_buffer(retention_batches=3)
        self.run_batches(buffer, 10)
        with pytest.raises(StorageError, match="retained"):
            buffer.rate_over_batches(1.0, last=5)

    def test_window_larger_than_history_means_whole_history(self):
        # Pre-session semantics: counts[-last:] with last > len returned all.
        buffer = make_buffer(retention_batches=5)
        self.run_batches(buffer, 3)
        estimate = buffer.rate_over_batches(1.0, last=50)
        assert estimate.tuples == 30
        assert estimate.duration == 3.0

    def test_items_returns_only_retained_tuples(self):
        buffer = make_buffer(retention_batches=2)
        self.run_batches(buffer, 5)
        assert [item.tuple_id for item in buffer.items()] == list(range(30, 50))

    def test_retention_aligns_to_batches_with_several_chunks_per_batch(self):
        buffer = make_buffer(retention_batches=2)
        for batch in range(4):
            for i in range(3):
                buffer.extend_batch(make_batch(batch * 3 + i, 1))
            buffer.end_batch()
        # Eviction drops whole batches' chunks (three per batch here); the
        # retained window is exactly 2 batches.
        assert [item.tuple_id for item in buffer.items()] == list(range(6, 12))
        assert buffer.total_tuples == 12
        assert buffer.evicted_tuples == 6

    def test_retention_validation(self):
        with pytest.raises(StorageError):
            make_buffer(retention_batches=0)

    def test_requested_rate_and_area_updates(self):
        buffer = make_buffer()
        self.run_batches(buffer, 2)
        buffer.set_requested_rate(99.0)
        buffer.set_region_area(2.0)
        estimate = buffer.rate_over_batches(1.0)
        assert estimate.requested_rate == 99.0
        assert estimate.area == 2.0
        with pytest.raises(StorageError):
            buffer.set_requested_rate(0.0)
        with pytest.raises(StorageError):
            buffer.set_region_area(-1.0)


class TestResultsPollingLeavesStorageAlone:
    """Regression: ``results()`` must not change what other readers get.

    ``items()`` used to replace each stored batch by its tuple list, which
    ``fetch_batch()`` rebuilt without the typed extra columns — so an
    in-process monitor polling ``results()`` changed wire bytes, checkpoint
    bytes and ``batch.extra`` for every other consumer.
    """

    def run(self, monkeypatch, *, polled, batches=4):
        # Query and operator ids come from process-wide counters and are
        # part of a snapshot: pin both so the two engines can be compared.
        monkeypatch.setattr("repro.streams.operator._operator_ids", itertools.count(1))
        world = build_rain_temperature_world(sensor_count=300, seed=11)
        engine = CraqrEngine(default_engine_config(seed=7), world)
        handle = engine.register_query(
            AcquisitionalQuery(
                attribute="rain",
                region=Rectangle(0.0, 0.0, 2.0, 2.0),
                rate=RateSpec(10.0, area_unit="km2", time_unit="min"),
                name="Q1-rain",
                query_id=1,
            )
        )
        cursor = handle.cursor()
        for _ in range(batches):
            engine.run_batch()
            if polled:
                handle.results()
        return engine, handle, cursor

    def test_polled_equals_unpolled(self, monkeypatch, tmp_path):
        engine_a, handle_a, cursor_a = self.run(monkeypatch, polled=False)
        engine_b, handle_b, cursor_b = self.run(monkeypatch, polled=True)
        assert (
            engine_a.snapshot().write(tmp_path / "a").read_bytes()
            == engine_b.snapshot().write(tmp_path / "b").read_bytes()
        )
        assert handle_a.results() == handle_b.results()

        object_cursor = handle_b.cursor()
        batch_a, batch_b = cursor_a.fetch_batch(), cursor_b.fetch_batch()
        assert len(batch_a) == len(batch_b) > 0
        assert sorted(batch_b.extra) == sorted(batch_a.extra) == ["cell", "incentive"]
        for name in ("t", "x", "y", "value", "tuple_id", "sensor_id"):
            a, b = getattr(batch_a, name), getattr(batch_b, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        for name, a in batch_a.extra.items():
            b = batch_b.extra[name]
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert encode_tuple_batch(batch_a) == encode_tuple_batch(batch_b)
        assert handle_b.results() == object_cursor.fetch()
