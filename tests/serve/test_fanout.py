"""Serialize-once fan-out, bounded queues and backpressure policies."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.errors import ServeError, StorageError
from repro.serve import fanout as fanout_module
from repro.serve.fanout import FrameFanout, SubscriberQueue
from repro.serve.tokens import frame_token_at
from repro.streams.codec import decode_tuple_batch, decode_view_frame, encode_view_frame
from repro.views.frames import ViewFrame, ViewFrameBuffer

from serve_harness import make_engine


def make_frame(index: int, groups: int = 2) -> ViewFrame:
    keys = np.empty(groups, dtype=object)
    keys[:] = [(g, index) for g in range(groups)]
    return ViewFrame(
        frame_index=index,
        window_start=float(2 * index),
        window_end=float(2 * index + 2),
        keys=keys,
        values=np.arange(groups, dtype=np.float64) + index,
        counts=np.full(groups, 3, dtype=np.int64),
    )


def fill(buffer: ViewFrameBuffer, upto: int) -> None:
    for i in range(buffer.frames_emitted, upto):
        buffer.append(make_frame(i))


@pytest.fixture
def encode_calls(monkeypatch):
    """Count the encoder calls the fan-out makes, per payload kind."""
    calls = {"tuple_batch": 0, "view_frame": 0}
    for kind in calls:
        name = f"encode_{kind}"

        def counting(payload, encoder=getattr(fanout_module, name), kind=kind):
            calls[kind] += 1
            return encoder(payload)

        monkeypatch.setattr(fanout_module, name, counting)
    return calls


class TestSubscriberQueue:
    def test_fifo_order(self):
        q = SubscriberQueue(capacity=4)
        for i in range(3):
            q.offer({"event": "frame", "i": i}, b"p%d" % i)
        assert [q.pop()[0]["i"] for _ in range(3)] == [0, 1, 2]
        assert q.pop() is None

    def test_skip_drops_oldest_and_reports_count(self):
        q = SubscriberQueue(capacity=2, policy="skip")
        for i in range(5):
            assert q.offer({"i": i}, b"")
        assert len(q) == 2
        header, _ = q.pop()
        assert header["i"] == 3  # 0..2 were dropped to make room
        assert header["skipped"] == 3
        header, _ = q.pop()
        assert header["i"] == 4
        assert "skipped" not in header  # the count was reported and reset

    def test_disconnect_flags_overflow_and_stops_accepting(self):
        q = SubscriberQueue(capacity=2, policy="disconnect")
        assert q.offer({"i": 0}, b"")
        assert q.offer({"i": 1}, b"")
        assert not q.offer({"i": 2}, b"")
        assert q.overflowed
        assert not q.offer({"i": 3}, b"")
        # The two accepted events are still drainable.
        assert q.pop()[0]["i"] == 0
        assert q.pop()[0]["i"] == 1

    def test_ready_deque_holds_a_non_empty_queue_once(self):
        ready = deque()
        q = SubscriberQueue(capacity=1, policy="skip", ready=ready)
        for i in range(3):  # capacity 1: each offer empties and refills it
            q.offer({"i": i}, b"")
        assert list(ready) == [q]
        ready.popleft()
        assert q.pop()[0] == {"i": 2, "skipped": 2}
        q.offer({"i": 3}, b"")  # empty -> non-empty: ready again
        assert list(ready) == [q]

    def test_close_drops_pending_and_leaves_the_ready_deque(self):
        ready = deque()
        q = SubscriberQueue(ready=ready)
        q.offer({"i": 0}, b"")
        q.close()
        assert q.pop() is None
        q.offer({"i": 1}, b"")
        assert list(ready) == [q]  # only the entry from before the close

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ServeError, match="positive capacity"):
            SubscriberQueue(capacity=0)
        with pytest.raises(ServeError, match="unknown backpressure"):
            SubscriberQueue(policy="block")


class TestViewFanout:
    @pytest.mark.parametrize("subscribers", [50, 1000])
    def test_publish_encodes_once_and_shares_payload_by_reference(
        self, subscribers, encode_calls
    ):
        buffer = ViewFrameBuffer()
        fanout = FrameFanout()
        queues = [SubscriberQueue(capacity=16) for _ in range(subscribers)]
        for q in queues:
            fanout.subscribe_view("Rain", buffer, q)
        assert len(fanout._topic_of) == subscribers

        fill(buffer, 3)
        assert fanout.publish() == 3
        # Three frames, however many subscribers: exactly three encodes.
        assert encode_calls == {"tuple_batch": 0, "view_frame": 3}

        first_payloads = [q.pop()[1] for q in queues]
        assert all(p is first_payloads[0] for p in first_payloads)
        assert decode_view_frame(first_payloads[0]).frame_index == 0

    def test_publish_is_incremental(self):
        buffer = ViewFrameBuffer()
        fanout = FrameFanout()
        q = SubscriberQueue(capacity=16)
        fanout.subscribe_view("Rain", buffer, q)
        fill(buffer, 2)
        assert fanout.publish() == 2
        assert fanout.publish() == 0  # nothing new
        fill(buffer, 3)
        assert fanout.publish() == 1
        indexes = []
        while (item := q.pop()) is not None:
            indexes.append(item[0]["frame_index"])
        assert indexes == [0, 1, 2]

    def test_token_resume_drains_backlog_exactly_once(self):
        buffer = ViewFrameBuffer()
        fanout = FrameFanout()
        a = SubscriberQueue(capacity=16)
        fanout.subscribe_view("Rain", buffer, a)
        fill(buffer, 5)
        fanout.publish()
        events = [a.pop() for _ in range(5)]
        token = events[2][0]["token"]  # consumed frames 0..2

        b = SubscriberQueue(capacity=16)
        fanout.subscribe_view("Rain", buffer, b, token=token)
        fill(buffer, 7)
        fanout.publish()
        got = []
        while (item := b.pop()) is not None:
            header, payload = item
            got.append(header["frame_index"])
            assert payload == encode_view_frame(buffer.frame(header["frame_index"]))
        # Exactly once from the token position: no gaps, no duplicates.
        assert got == [3, 4, 5, 6]

    def test_token_past_frontier_rejected_at_subscribe(self):
        buffer = ViewFrameBuffer()
        fanout = FrameFanout()
        fill(buffer, 2)
        with pytest.raises(ServeError, match="only emitted"):
            fanout.subscribe_view(
                "Rain", buffer, SubscriberQueue(), token=frame_token_at(9)
            )

    def test_token_behind_retention_surfaces_storage_error(self):
        buffer = ViewFrameBuffer(retention_frames=2)
        fanout = FrameFanout()
        fill(buffer, 6)  # frames 0..3 evicted
        with pytest.raises(StorageError, match="evicted"):
            fanout.subscribe_view(
                "Rain", buffer, SubscriberQueue(), token=frame_token_at(1)
            )
        # The failed subscribe left no queue behind.
        assert len(fanout._topic_of) == 0
        fanout.subscribe_view("Rain", buffer, SubscriberQueue())
        assert len(fanout._topic_of) == 1

    def test_unsubscribe_dismantles_empty_topics(self):
        buffer = ViewFrameBuffer()
        fanout = FrameFanout()
        q = SubscriberQueue()
        fanout.subscribe_view("Rain", buffer, q)
        fill(buffer, 1)
        fanout.unsubscribe(q)
        assert len(fanout._topic_of) == 0
        assert fanout.publish() == 0  # no topics left to walk

    def test_unsubscribe_leaves_other_queues_and_topics_alone(self):
        rain, snow = ViewFrameBuffer(), ViewFrameBuffer()
        fanout = FrameFanout()
        leaving, staying, other = (SubscriberQueue() for _ in range(3))
        fanout.subscribe_view("Rain", rain, leaving)
        fanout.subscribe_view("Rain", rain, staying)
        fanout.subscribe_view("Snow", snow, other)
        fill(rain, 1)
        fill(snow, 1)
        fanout.publish()
        fanout.unsubscribe(leaving)
        fanout.unsubscribe(leaving)  # idempotent
        assert leaving.pop() is None  # what it held is dropped with it
        assert len(fanout._topic_of) == 2
        fill(rain, 2)
        fill(snow, 2)
        assert fanout.publish() == 2
        assert (len(leaving), len(staying), len(other)) == (0, 2, 2)

    def test_overflowed_queues_listed(self):
        buffer = ViewFrameBuffer()
        fanout = FrameFanout()
        q = SubscriberQueue(capacity=1, policy="disconnect", tag=("c", 1))
        fanout.subscribe_view("Rain", buffer, q)
        fill(buffer, 3)
        fanout.publish()
        assert fanout.overflowed_queues() == [q]

    def test_overflowed_queue_is_listed_once_until_unsubscribed(self):
        buffer = ViewFrameBuffer()
        fanout = FrameFanout()
        q = SubscriberQueue(capacity=1, policy="disconnect")
        fanout.subscribe_view("Rain", buffer, q)
        fanout.subscribe_view("Rain", buffer, SubscriberQueue())
        for upto in (2, 3, 4):  # refused again on every later publish
            fill(buffer, upto)
            fanout.publish()
        assert fanout.overflowed_queues() == [q]
        fanout.unsubscribe(q)
        assert fanout.overflowed_queues() == []

    def test_backlog_overflow_at_subscribe_is_listed(self):
        buffer = ViewFrameBuffer()
        fanout = FrameFanout()
        fanout.subscribe_view("Rain", buffer, SubscriberQueue())
        fill(buffer, 3)
        q = SubscriberQueue(capacity=2, policy="disconnect")
        fanout.subscribe_view("Rain", buffer, q, token=frame_token_at(0))
        assert fanout.overflowed_queues() == [q]


class TestQueryFanout:
    def test_delivery_batches_fan_out_serialize_once(self, encode_calls):
        engine = make_engine(view=False)
        buffer = engine.query("Storm").buffer
        fanout = FrameFanout()
        queues = [SubscriberQueue(capacity=16) for _ in range(10)]
        tokens = [fanout.subscribe_query("Storm", buffer, q) for q in queues]
        assert len(set(tokens)) == 1  # all joined at the same frontier

        engine.run_batch()
        assert fanout.publish() == 1
        assert encode_calls == {"tuple_batch": 1, "view_frame": 0}

        payloads = [q.pop() for q in queues]
        assert all(p[1] is payloads[0][1] for p in payloads)
        header, payload = payloads[0]
        batch = decode_tuple_batch(payload)
        assert header["count"] == len(batch) > 0

    def test_token_resume_replays_unread_deliveries(self):
        engine = make_engine(view=False)
        buffer = engine.query("Storm").buffer
        fanout = FrameFanout()
        a = SubscriberQueue(capacity=16)
        fanout.subscribe_query("Storm", buffer, a)
        for _ in range(3):
            engine.run_batch()
            fanout.publish()
        a.pop()  # consume batch 1
        header, _ = a.pop()  # consume batch 2; resume after it
        token = header["token"]

        b = SubscriberQueue(capacity=16)
        fanout.subscribe_query("Storm", buffer, b, token=token)
        _, backlog_payload = b.pop()
        # The backlog is byte-identical to the batch-3 event the original
        # subscriber still holds: exactly once, no gaps, no duplicates.
        _, batch3_payload = a.pop()
        assert backlog_payload == batch3_payload
        assert len(decode_tuple_batch(backlog_payload)) > 0
        assert b.pop() is None
