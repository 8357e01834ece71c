"""Grouped push events: one publish reaches a connection in one message.

The server frames consecutive events of one publish (the same header and
payload objects, popped back to back) as one message ending in
``"subs":[id,...]``; the client expands it into one event per id.  The
reference here is the per-subscription writer every event used to go
through, kept below as :func:`per_subscription_burst`: a connection's
``next_event`` sequence must be exactly what that writer's messages
decode to, headers key for key and payloads byte for byte.
"""

from __future__ import annotations

import contextlib
import socket
import threading
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.serve.client as client_module
import repro.serve.protocol as protocol
from repro.errors import ServeError
from repro.serve import ServeClient, ServeConfig, Server, serve_in_thread
from repro.serve.fanout import SubscriberQueue
from repro.serve.protocol import (
    MAGIC,
    PROTOCOL,
    EventHeader,
    decode_message,
    encode_message,
    frame_head,
    ws_decode_frame,
    ws_encode_frame,
    ws_frame_head,
)
from repro.serve.server import BURST_BYTES, _Connection

from scaffolding import frame_message
from serve_harness import RawWire, make_engine

WS_REPLY = b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\n\r\n"

#: A second view, so a connection can hold three topics.
SLOW_VIEW = "CREATE VIEW Slow ON Storm AS AVG(value) GROUP BY CELL WINDOW 3"

TARGETS = [{"query": "Storm"}, {"view": "Rain"}, {"view": "Slow"}]


def per_subscription_burst(conn: _Connection):
    """The writer before grouping: every event framed alone with its ``"sub"``."""
    parts, size = [], 0
    prefix = ws_frame_head if conn.websocket else frame_head
    while conn.replies and size < BURST_BYTES:
        body = encode_message(*conn.replies.popleft())
        parts += [prefix(len(body)), body]
        size += len(body)
    ready = conn.ready
    while ready and size < BURST_BYTES:
        queue = ready.popleft()
        event = queue.pop()
        if event is None:
            continue
        if len(queue):
            ready.append(queue)
        header, payload = event
        body = encode_message(dict(header, sub=queue.tag[1]), payload)
        parts += [prefix(len(body)), body]
        size += len(body)
    return parts


class OfflineServer:
    """A real :class:`Server` driven op by op over one socketless connection.

    Replies and events collect on the connection; :meth:`drain` runs the
    writer's bursts (``burst``) until nothing is pending and keeps the
    bytes.  Only full drains: the event order then does not depend on
    where a burst was cut.
    """

    def __init__(self, websocket: bool, burst) -> None:
        engine = make_engine()
        engine.execute(SLOW_VIEW)
        self.server = Server(engine, ServeConfig())
        self.conn = _Connection(None, None)
        self.conn.websocket = websocket
        self.server._connections[self.conn.id] = self.conn
        self._burst = burst
        self.wire = bytearray()

    def op(self, **header) -> dict:
        """Dispatch one operation; returns its (still queued) reply."""
        self.server._dispatch(self.conn, header, b"")
        return self.conn.replies[-1][0]

    def drain(self) -> None:
        while parts := self._burst(self.conn):
            self.wire += b"".join(parts)


def messages(wire: bytes, websocket: bool):
    """Decode every message of a server's byte stream, in order."""
    out, start = [], 0
    view = memoryview(wire)
    while start < len(wire):
        if websocket:
            _, body, consumed = ws_decode_frame(view, start)
            assert consumed
            start += consumed
        else:
            length = int.from_bytes(wire[start : start + 4], "big")
            body = view[start + 4 : start + 4 + length]
            start += 4 + length
        out.append(decode_message(body))
    return out


@contextlib.contextmanager
def reading_client(wire: bytes, transport: str):
    """A :class:`ServeClient` reading ``wire`` from a peer that then closes."""
    ours, theirs = socket.socketpair()
    data = (WS_REPLY if transport == "ws" else b"") + bytes(wire)

    def write():
        with contextlib.suppress(OSError):
            theirs.sendall(data)
        theirs.shutdown(socket.SHUT_WR)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()  # before the client, whose websocket handshake reads
    with mock.patch.object(client_module.socket, "create_connection", lambda *a, **k: ours):
        client = ServeClient("peer", 0, transport=transport, timeout=10)
    try:
        yield client
    finally:
        client.close()
        writer.join(timeout=10)
        theirs.close()
        assert not writer.is_alive()


# ----------------------------------------------------------------------
# The property: next_event equals the per-subscription framing
# ----------------------------------------------------------------------
#: Queue capacities, small ones often enough to skip and to overflow.
CAPACITY = st.one_of(st.integers(1, 3), st.integers(1, 64))
SUBSCRIBE = st.tuples(
    st.just("subscribe"),
    st.integers(0, len(TARGETS) - 1),
    st.sampled_from(["skip", "skip", "disconnect"]),
    CAPACITY,
)
#: Runs between drains are a reader that stalls for that many batches.
RUN = st.tuples(st.just("run"), st.integers(1, 6))
STEPS = st.one_of(
    RUN,
    RUN,
    st.tuples(st.just("drain")),
    SUBSCRIBE,
    st.tuples(st.just("unsubscribe"), st.integers(0, 1000)),
    st.tuples(st.just("resume"), st.integers(0, 1000), CAPACITY),
)


@pytest.mark.parametrize("transport", ["tcp", "ws"])
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    first=st.lists(SUBSCRIBE, min_size=1, max_size=8),
    steps=st.lists(STEPS, min_size=2, max_size=16),
)
def test_next_event_equals_per_subscription_framing(transport, first, steps):
    websocket = transport == "ws"
    grouped = OfflineServer(websocket, _Connection.next_burst)
    oracle = OfflineServer(websocket, per_subscription_burst)
    twins = (grouped, oracle)
    # (sub id, target, token at subscribe) of every subscription made.
    made = []

    def both(**header) -> dict:
        replies = [twin.op(**header) for twin in twins]
        assert replies[0] == replies[1]
        return replies[0]

    def subscribe(target, policy, capacity, token=None):
        header = dict(TARGETS[target], policy=policy, queue_events=capacity)
        if token is not None:
            header["token"] = token
        reply = both(op="subscribe", **header)
        made.append((reply["sub"], target, reply["token"]))

    for _, target, policy, capacity in first:
        subscribe(target, policy, capacity)
    for step in [*steps, ("drain",)]:
        if grouped.conn.closing:  # a disconnect-policy queue overflowed
            break
        kind = step[0]
        if kind == "run":
            both(op="run", batches=step[1])
        elif kind == "drain":
            for twin in twins:
                twin.drain()
        elif kind == "subscribe":
            subscribe(*step[1:])
        elif kind == "unsubscribe":
            live = sorted(grouped.conn.subscriptions)
            if live:
                both(op="unsubscribe", sub=live[step[1] % len(live)])
        else:  # resume an earlier subscription's stream from its token
            _, target, token = made[step[1] % len(made)]
            subscribe(target, "skip", step[2], token)
    for twin in twins:
        twin.drain()

    expected = [m for m in messages(oracle.wire, websocket) if "event" in m[0]]
    with reading_client(grouped.wire, transport) as client:
        for header, payload in expected:
            got_header, got_payload = client.next_event(timeout=10)
            assert list(got_header.items()) == list(header.items())
            assert type(got_payload) is bytes and got_payload == payload
        with pytest.raises(ServeError, match="closed the connection"):
            client.next_event(timeout=10)
    assert len(messages(grouped.wire, websocket)) <= len(messages(oracle.wire, websocket))


# ----------------------------------------------------------------------
# Where a group ends (bursts assembled without a socket)
# ----------------------------------------------------------------------
FIELDS = {"event": "batch", "query": "Storm", "count": 3, "token": "t"}


def lone(header: dict, sub: int, payload: bytes) -> bytes:
    return frame_message(encode_message(dict(header, sub=sub), payload))


def group(header: dict, subs, payload: bytes) -> bytes:
    return frame_message(encode_message(dict(header, subs=list(subs)), payload))


def offline_queues(*capacities):
    conn = _Connection(None, None)
    queues = [
        SubscriberQueue(capacity=capacity, tag=(conn.id, sub), ready=conn.ready)
        for sub, capacity in enumerate(capacities, 1)
    ]
    return conn, queues


def drained(conn: _Connection) -> bytes:
    wire = b""
    while parts := conn.next_burst():
        wire += b"".join(parts)
    return wire


def test_a_queue_with_a_pending_skip_count_is_not_grouped():
    conn, (first, skipping, third) = offline_queues(4, 1, 4)
    header, older = EventHeader(FIELDS), EventHeader(dict(FIELDS, count=1))
    first.offer(header, b"p")
    skipping.offer(older, b"o")
    for queue in (skipping, third):
        queue.offer(header, b"p")  # drops `older` from the one-event queue
    assert list(conn.ready) == [first, skipping, third]
    assert drained(conn) == (
        lone(FIELDS, 1, b"p")
        + lone(dict(FIELDS, skipped=1), 2, b"p")
        + lone(FIELDS, 3, b"p")
    )


def test_another_payload_or_a_closed_queue_ends_a_group():
    conn, queues = offline_queues(4, 4, 4, 4, 4, 4)
    header, payload = EventHeader(FIELDS), b"p"
    for queue in queues:
        queue.offer(header, payload if queue is not queues[2] else b"q")
    queues[4].close()
    assert drained(conn) == (
        group(FIELDS, [1, 2], b"p")
        + lone(FIELDS, 3, b"q")
        + lone(FIELDS, 4, b"p")
        + lone(FIELDS, 6, b"p")
    )


def test_a_group_is_cut_before_the_message_cap(monkeypatch):
    conn, queues = offline_queues(*[4] * 12)
    header, payload = EventHeader(FIELDS), bytes(100)
    for queue in queues:
        queue.offer(header, payload)
    first = group(FIELDS, range(1, 11), payload)
    cap = len(first) - 4  # exactly the body of the first ten ids' message
    monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", cap)
    assert drained(conn) == first + group(FIELDS, [11, 12], payload)


def test_an_event_whose_group_would_pass_the_cap_goes_alone(monkeypatch):
    conn, queues = offline_queues(4, 4, 4)
    header, payload = EventHeader(FIELDS), bytes(100)
    for queue in queues:
        queue.offer(header, payload)
    cap = len(group(FIELDS, [1, 2], payload)) - 5  # one byte short of two ids
    monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", cap)
    assert drained(conn) == b"".join(lone(FIELDS, sub, payload) for sub in (1, 2, 3))


# ----------------------------------------------------------------------
# Over real sockets
# ----------------------------------------------------------------------
@pytest.fixture
def served():
    server, address, stop = serve_in_thread(make_engine(), ServeConfig())
    yield server, address
    stop()


@pytest.mark.parametrize("transport", ["tcp", "ws"])
def test_one_publish_to_n_subscriptions_is_one_message(served, transport):
    _, (host, port) = served
    count = 5
    wire = RawWire(host, port, transport)
    try:
        wire.send(
            *[{"op": "subscribe", "query": "Storm", "id": i} for i in range(1, count + 1)],
            {"op": "run", "batches": 1, "id": count + 1},
        )
        replies = wire.read_until_reply(count + 1)
        assert all("event" not in header for _, header, _ in replies)
        raw, header, payload = wire.read()
        wire.send({"op": "ping", "id": count + 2})
        assert [h.get("id") for _, h, _ in wire.read_until_reply(count + 2)] == [count + 2]
    finally:
        wire.close()
    assert header["subs"] == list(range(1, count + 1))
    fields = {key: header[key] for key in ("event", "query", "count", "token")}
    body = encode_message(dict(fields, subs=header["subs"]), payload)
    assert raw == (ws_encode_frame(body) if transport == "ws" else frame_message(body))

    with ServeClient(host, port, transport=transport) as client:
        subs = [client.subscribe(query="Storm")["sub"] for _ in range(count)]
        client.run(1)
        events = [client.next_event(timeout=30) for _ in range(count)]
    assert [h["sub"] for h, _ in events] == subs
    assert all(list(h) == ["event", "query", "count", "token", "sub"] for h, _ in events)
    assert all(p is events[0][1] for _, p in events)  # one payload, shared
    first = events[0][0]
    siblings = [dict(h) for h, _ in events[1:]]
    first["count"] = -1
    first["sub"] = 0
    del first["token"]
    assert [h for h, _ in events[1:]] == siblings
    assert all(h["count"] != -1 and "token" in h for h, _ in events[1:])


def test_a_craqr_1_preamble_is_refused(served):
    _, (host, port) = served
    assert MAGIC != b"CRAQR/1\n"
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(b"CRAQR/1\n")
        sock.settimeout(10)
        assert sock.recv(64) == b"craqr: bad magic\n"
        assert sock.recv(64) == b""


def upgrade(host: str, port: int, *extra: str) -> bytes:
    """Everything the server answers to a websocket upgrade request."""
    request = "".join(
        line + "\r\n"
        for line in (
            "GET /craqr HTTP/1.1",
            f"Host: {host}:{port}",
            "Upgrade: websocket",
            "Connection: Upgrade",
            "Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==",
            "Sec-WebSocket-Version: 13",
            *extra,
            "",
        )
    )
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request.encode("latin-1"))
        sock.settimeout(10)
        answer = b""
        while chunk := sock.recv(4096):
            answer += chunk
            if answer.startswith(b"HTTP/1.1 101 ") and answer.endswith(b"\r\n\r\n"):
                break
    return answer


@pytest.mark.parametrize(
    "offer", [(), ("Sec-WebSocket-Protocol: craqr/1",), ("Sec-WebSocket-Protocol: chat",)]
)
def test_a_websocket_upgrade_without_the_protocol_is_refused(served, offer):
    _, (host, port) = served
    answer = upgrade(host, port, *offer)
    assert answer == f"HTTP/1.1 400 Bad Request\r\n\r\ncraqr: {PROTOCOL} not offered\n".encode()


def test_a_websocket_upgrade_offering_the_protocol_is_accepted(served):
    _, (host, port) = served
    answer = upgrade(host, port, f"Sec-WebSocket-Protocol: chat, {PROTOCOL}")
    assert answer.startswith(b"HTTP/1.1 101 ")
    assert f"\r\nSec-WebSocket-Protocol: {PROTOCOL}\r\n".encode() in answer
