"""The push path costs O(events): ready list, header-once, burst writes.

Counters and byte comparisons only — no wall-clock assertions.  The wire
bytes over real sockets are pinned in ``test_server.py::TestWireIdentity``;
this file covers the pieces below the socket and the writer's semantics.
"""

from __future__ import annotations

import json
import socket
import string
import struct
import sys
import threading
from unittest import mock

import numpy as np
import pytest

import repro.serve.server as server_module
from repro.errors import ServeError
from repro.serve import ServeClient, ServeConfig, serve_in_thread
from repro.serve.fanout import SubscriberQueue
from repro.serve.protocol import (
    EventHeader,
    encode_message,
    ws_decode_frame,
    ws_encode_frame,
)
from repro.serve.server import BURST_BYTES, _Connection
from repro.streams.codec import decode_tuple_batch, encode_view_frame

from scaffolding import frame_message
from serve_harness import RawWire, make_engine, reference_frames

#: Every character an offset token can contain (urlsafe base64 + padding).
ALL_TOKEN_CHARACTERS = string.ascii_letters + string.digits + "-_="

EVENTS = {
    "batch": {"event": "batch", "query": "Störm ☂", "count": 17},
    "frame": {"event": "frame", "view": "Rain", "frame_index": 3},
}


@pytest.fixture
def served():
    engine = make_engine()
    server, address, stop = serve_in_thread(engine, ServeConfig())
    yield server, address
    stop()


def offline_connection(websocket: bool = False) -> _Connection:
    """A connection with no socket: enough to assemble bursts."""
    conn = _Connection(None, None)
    conn.websocket = websocket
    return conn


def queue_on(conn: _Connection, sub: int, **options) -> SubscriberQueue:
    queue = SubscriberQueue(tag=(conn.id, sub), ready=conn.ready, **options)
    conn.subscriptions[sub] = queue
    return queue


class TestHeaderOnce:
    @pytest.mark.parametrize("websocket", [False, True])
    @pytest.mark.parametrize("skipped", [0, 3])
    @pytest.mark.parametrize("kind", ["batch", "frame"])
    def test_burst_bytes_equal_the_per_message_encoding(self, kind, skipped, websocket):
        fields = dict(EVENTS[kind], token=ALL_TOKEN_CHARACTERS)
        payload = bytes(range(256)) * 5
        conn = offline_connection(websocket)
        queue = queue_on(conn, 41, capacity=1)
        for _ in range(skipped + 1):  # a one-event queue skips the rest
            queue.offer(EventHeader(fields), payload)

        reference = dict(fields, skipped=skipped) if skipped else dict(fields)
        body = encode_message(dict(reference, sub=41), payload)
        framed = ws_encode_frame(body) if websocket else frame_message(body)
        assert b"".join(conn.next_burst()) == framed
        assert conn.next_burst() == []

    def test_header_stays_a_readable_dict(self):
        header = EventHeader(EVENTS["frame"])
        assert header == EVENTS["frame"]
        assert header.with_skipped(2) == dict(EVENTS["frame"], skipped=2)
        assert json.loads(header.with_skipped(2).open_json + b"}") == dict(
            EVENTS["frame"], skipped=2
        )


class TestBursts:
    def test_gathers_up_to_the_bound_then_stops(self):
        conn = offline_connection()
        queue = queue_on(conn, 1, capacity=100)
        payload = bytes(10 * 1024)
        for index in range(100):
            queue.offer(EventHeader({"event": "frame", "frame_index": index}), payload)
        first = conn.next_burst()
        sent = len(first) // 4  # four parts per event
        assert BURST_BYTES <= len(b"".join(first)) < BURST_BYTES + 11 * 1024
        assert len(queue) == 100 - sent > 0
        assert all(part is payload for part in first[3::4])  # carried by reference

    def test_an_event_larger_than_the_bound_is_sent_whole(self, monkeypatch):
        monkeypatch.setattr(server_module, "BURST_BYTES", 100)
        conn = offline_connection()
        queue = queue_on(conn, 7)
        for index in range(3):
            queue.offer(EventHeader({"event": "frame", "frame_index": index}), bytes(1000))
        for index in range(3):
            header = {"event": "frame", "frame_index": index, "sub": 7}
            assert b"".join(conn.next_burst()) == frame_message(
                encode_message(header, bytes(1000))
            )
        assert conn.next_burst() == []

    def test_replies_lead_the_burst(self):
        conn = offline_connection()
        queue_on(conn, 1).offer(EventHeader({"event": "frame"}), b"f")
        conn.enqueue_reply({"id": 9, "ok": True}, b"r")
        assert b"".join(conn.next_burst()) == frame_message(
            encode_message({"id": 9, "ok": True}, b"r")
        ) + frame_message(encode_message({"event": "frame", "sub": 1}, b"f"))

    def test_round_robin_across_subscriptions_fifo_within_one(self):
        conn = offline_connection()
        long, short = queue_on(conn, 1), queue_on(conn, 2)
        for index in range(4):
            long.offer(EventHeader({"event": "batch", "n": index}), b"")
        short.offer(EventHeader({"event": "frame", "n": 0}), b"")
        heads = [json.loads(part) for part in conn.next_burst()[2::4]]
        assert [(h["sub"], h["n"]) for h in heads] == [
            (1, 0), (2, 0), (1, 1), (1, 2), (1, 3),
        ]

    def test_a_closed_queue_sends_nothing_more(self):
        conn = offline_connection()
        queue = queue_on(conn, 1)
        queue.offer(EventHeader({"event": "frame"}), b"")
        queue.close()
        assert conn.next_burst() == []
        assert not conn.ready


class TestComplexity:
    def test_one_pop_per_event_and_one_header_dump_per_distinct_event(
        self, served, monkeypatch
    ):
        _, (host, port) = served
        subscriptions = 2_000
        pops, dumped = [], []
        pop, dumps = SubscriberQueue.pop, json.dumps

        def counting_pop(queue):
            pops.append(queue)
            return pop(queue)

        def counting_dumps(obj, **options):
            if isinstance(obj, dict) and "event" in obj:
                dumped.append(obj)
            return dumps(obj, **options)

        with ServeClient(host, port) as client:
            for _ in range(subscriptions):
                client.subscribe(query="Storm")
            monkeypatch.setattr(SubscriberQueue, "pop", counting_pop)
            monkeypatch.setattr(json, "dumps", counting_dumps)
            client.run(1)
            events = [client.next_event(timeout=30) for _ in range(subscriptions)]
            client.request({"op": "ping"})  # the writer has nothing left
        assert sorted(h["sub"] for h, _ in events) == list(range(1, subscriptions + 1))
        assert len({p for _, p in events}) == 1
        assert len(pops) == subscriptions  # a scan made this S * S / 2
        assert len(dumped) == 1  # one event, 2000 subscribers

    def test_a_full_queue_does_not_starve_its_sibling(self, served):
        _, (host, port) = served
        with ServeClient(host, port) as client, ServeClient(host, port) as other:
            client.execute(
                "CREATE VIEW Slow ON Storm AS AVG(value) GROUP BY CELL WINDOW 64"
            )
            busy = client.subscribe(query="Storm")["sub"]
            quiet = client.subscribe(view="Slow")["sub"]
            other.subscribe(query="Storm")
            client.run(64)  # 64 queued batches next to one closed frame
            events = [client.next_event(timeout=30) for _ in range(65)]
            assert quiet in [h["sub"] for h, _ in events[:2]]
            batches = [p for h, p in events if h["sub"] == busy]
            theirs = [other.next_event(timeout=30)[1] for _ in range(64)]
            _, stream = client.fetch(query="Storm")
        # Per-subscription order is the publish order, on both connections.
        assert batches == theirs
        ids = np.concatenate([decode_tuple_batch(p).tuple_id for p in batches])
        np.testing.assert_array_equal(ids, decode_tuple_batch(stream).tuple_id)


class TestSemantics:
    def test_nothing_follows_unsubscribed_and_the_token_splices(self, served):
        _, (host, port) = served
        wire = RawWire(host, port)
        try:
            wire.send({"op": "subscribe", "view": "Rain", "id": 1})
            ((_, subscribed, _),) = wire.read_until_reply(1)
            # One send: three frames are queued when the unsubscribe runs.
            wire.send(
                {"op": "run", "batches": 6, "id": 2},
                {"op": "unsubscribe", "sub": subscribed["sub"], "id": 3},
                {"op": "ping", "id": 4},
            )
            before = wire.read_until_reply(3)
            after = wire.read_until_reply(4)
        finally:
            wire.close()
        assert [h for _, h, _ in after if "event" in h] == []
        seen = [(h, p) for _, h, p in before if h.get("event") == "frame"]
        token = seen[-1][0]["token"] if seen else subscribed["token"]
        with ServeClient(host, port) as client:
            client.subscribe(view="Rain", token=token)
            client.run(2)
            resumed = [client.next_event(timeout=30)[1] for _ in range(4 - len(seen))]
        reference = [encode_view_frame(f) for f in reference_frames(8)]
        assert [p for _, p in seen] + resumed == reference

    def test_disconnect_policy_sends_the_event_then_closes(self, served):
        server, (host, port) = served
        with ServeClient(host, port) as client:
            sub = client.subscribe(query="Storm", policy="disconnect", queue_events=1)
            client.run(3)  # the second batch overflows the one-event queue
            header, _ = client.next_event(timeout=30)
            assert header == {
                "event": "disconnect", "reason": "backpressure", "sub": sub["sub"],
            }
            with pytest.raises(ServeError, match="closed the connection"):
                client.next_event(timeout=30)
        assert server._fanout.overflowed_queues() == []
        assert server._fanout._topic_of == {}

    def test_stalled_subscriber_footprint_stays_bounded(self, served):
        server, (host, port) = served
        capacity, subscriptions = 4, 200
        # The stalled client's kernel receive buffer is pinned small before
        # it connects (the window it advertises follows it), so what the
        # server cannot deliver stays in the server's buffers, where it is
        # measured below.
        with mock.patch.object(socket, "create_connection", connect_with_small_receive_buffer):
            stalled = ServeClient(host, port)
        try:
            for _ in range(subscriptions):
                stalled.subscribe(query="Storm", policy="skip", queue_events=capacity)
            # From here on the stalled client never reads its socket.
            (conn,) = [c for c in server._connections.values() if c.subscriptions]
            transport = conn.writer.transport
            sock = transport.get_extra_info("socket")
            # One publish reaches the 200 subscriptions as one grouped
            # message, so the socket fills 200x slower than when each
            # subscription's copy travelled alone: lower this connection's
            # write-buffer limits and its kernel send buffer (on the
            # serving loop) to stall it within the batches below.
            lowered = threading.Event()

            def lower_limits():
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                transport.set_write_buffer_limits(high=4096)
                lowered.set()

            server._server.get_loop().call_soon_threadsafe(lower_limits)
            assert lowered.wait(timeout=30)
            _, high_water = transport.get_write_buffer_limits()
            send_buffer = sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
            buffered = largest = unsent = 0
            token = None
            with ServeClient(host, port, timeout=120) as driver:
                for _ in range(400):
                    driver.run(1)  # the engine keeps batching
                    buffered = max(buffered, transport.get_write_buffer_size())
                    unsent = max(unsent, unsent_bytes(sock))
                    reply, payload = driver.fetch(query="Storm", token=token)
                    token = reply["token"]
                    largest = max(largest, len(payload))  # this batch's event
                    if any(q.skipped for q in conn.subscriptions.values()):
                        break
            assert any(q.skipped for q in conn.subscriptions.values()), "never stalled"
            assert all(len(q) <= capacity for q in conn.subscriptions.values())
            # One grouped header: its fields and the list of the 200 ids.
            ids = ",".join(str(sub) for sub in conn.subscriptions)
            header_room = 512 + len(ids)
            assert 0 < buffered <= high_water + BURST_BYTES + largest + header_room
            # The kernel's share: what the server's socket holds unsent.
            if sys.platform.startswith("linux"):
                assert 0 < unsent <= send_buffer
        finally:
            stalled.close()


def connect_with_small_receive_buffer(address, timeout=None):
    """``socket.create_connection`` with ``SO_RCVBUF`` pinned to 4096 first."""
    family, kind, proto, _name, target = socket.getaddrinfo(*address, type=socket.SOCK_STREAM)[0]
    sock = socket.socket(family, kind, proto)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(timeout)
    sock.connect(target)
    return sock


def unsent_bytes(sock) -> int:
    """Bytes a socket's kernel send queue holds (Linux ``TIOCOUTQ``); 0 elsewhere."""
    if not sys.platform.startswith("linux"):
        return 0
    import fcntl
    import termios

    return struct.unpack("i", fcntl.ioctl(sock.fileno(), termios.TIOCOUTQ, b"\0" * 4))[0]


class TestClientBuffer:
    def test_ws_decode_frame_reads_at_an_offset(self):
        first, second = ws_encode_frame(b"one"), ws_encode_frame(b"x" * 300)
        data = first + second
        assert ws_decode_frame(data, len(first)) == (0x2, b"x" * 300, len(second))
        assert ws_decode_frame(data[:-1], len(first))[2] == 0

    def test_buffered_events_queue_in_arrival_order(self, served):
        _, (host, port) = served
        with ServeClient(host, port) as client:
            client.subscribe(view="Rain")
            client.run(6)
            client.request({"op": "ping"})  # the three frames are buffered now
            assert len(client.events) == 3 and client.events
            indexes = [client.next_event()[0]["frame_index"] for _ in range(3)]
            assert indexes == [0, 1, 2]
            assert not client.events
