"""Unit tests for SensorTuple and Stream."""

import pytest

from repro.errors import StreamError
from repro.geometry import SpacePoint
from repro.streams import SensorTuple, Stream, make_tuple_id_allocator


def make_tuple(tuple_id=0, attribute="rain", t=1.0, x=0.5, y=0.5, value=True):
    return SensorTuple(tuple_id=tuple_id, attribute=attribute, t=t, x=x, y=y, value=value)


class TestTupleIdAllocator:
    def test_monotonic_ids(self):
        allocate = make_tuple_id_allocator()
        assert [allocate() for _ in range(3)] == [0, 1, 2]

    def test_custom_start(self):
        allocate = make_tuple_id_allocator(100)
        assert allocate() == 100

    def test_independent_allocators(self):
        a = make_tuple_id_allocator()
        b = make_tuple_id_allocator()
        a()
        assert b() == 0


class TestSensorTuple:
    def test_location(self):
        item = make_tuple(t=2.0, x=1.0, y=3.0)
        assert item.location == SpacePoint(1.0, 3.0)

    def test_shifted(self):
        shifted = make_tuple(t=1.0, x=2.0, y=3.0).shifted(dt=1.0, dx=-1.0, dy=0.5)
        assert (shifted.t, shifted.x, shifted.y) == (2.0, 1.0, 3.5)

    def test_metadata_defaults_to_empty_dict(self):
        assert make_tuple().metadata == {}

    def test_equality_ignores_metadata(self):
        a = SensorTuple(1, "rain", 0.0, 0.0, 0.0, metadata={"a": 1})
        b = SensorTuple(1, "rain", 0.0, 0.0, 0.0, metadata={"b": 2})
        assert a == b


class TestStream:
    def test_requires_name(self):
        with pytest.raises(StreamError):
            Stream("")

    def test_push_forwards_to_subscribers(self):
        stream = Stream("s")
        received = []
        stream.subscribe(received.append)
        item = make_tuple()
        stream.push(item)
        assert received == [item]

    def test_multiple_subscribers_all_receive(self):
        stream = Stream("s")
        first, second = [], []
        stream.subscribe(first.append)
        stream.subscribe(second.append)
        stream.push(make_tuple())
        assert len(first) == len(second) == 1

    def test_push_many(self):
        stream = Stream("s")
        received = []
        stream.subscribe(received.append)
        count = stream.push_many(make_tuple(tuple_id=i) for i in range(5))
        assert count == 5
        assert len(received) == 5

    def test_stats_track_counts_and_timestamps(self):
        stream = Stream("s")
        stream.push(make_tuple(t=1.0))
        stream.push(make_tuple(t=4.0))
        assert stream.stats.tuples_pushed == 2
        assert stream.stats.first_timestamp == 1.0
        assert stream.stats.last_timestamp == 4.0

    def test_unsubscribe(self):
        stream = Stream("s")
        received = []
        stream.subscribe(received.append)
        stream.unsubscribe(received.append)
        stream.push(make_tuple())
        assert received == []

    def test_unsubscribe_unknown_raises(self):
        stream = Stream("s")
        with pytest.raises(StreamError):
            stream.unsubscribe(lambda item: None)

    def test_closed_stream_rejects_push_and_subscribe(self):
        stream = Stream("s")
        stream.close()
        with pytest.raises(StreamError):
            stream.push(make_tuple())
        with pytest.raises(StreamError):
            stream.subscribe(lambda item: None)

    def test_every_subscriber_sees_each_push(self):
        stream = Stream("s")
        first, second = [], []
        stream.subscribe(first.append)
        stream.subscribe(second.append)
        item = make_tuple()
        stream.push(item)
        assert first == second == [item]
