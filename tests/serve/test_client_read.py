"""The client's read path: one buffer, decode-once headers, caps, timeouts.

Every test drives a real :class:`ServeClient` over a ``socketpair``: the
client's ``socket.create_connection`` is patched to hand it one end, and
the test writes the server's bytes into the other.  ``ChunkedSocket``
caps each ``recv_into`` so a message can be made to arrive in any
pieces.  The reference for every decoded message is
:func:`repro.serve.protocol.decode_message` of the same body, without a
memo.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import socket
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.client as client_module
import repro.serve.protocol as protocol
from repro.errors import ServeError
from repro.serve import ServeClient
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    EventHeader,
    EventMemo,
    decode_message,
    encode_message,
    frame_head,
    ws_encode_frame,
    ws_frame_head,
)

WS_REPLY = b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\n\r\n"


class ChunkedSocket:
    """A socket whose ``recv_into`` reads at most the next chunk size."""

    def __init__(self, sock: socket.socket, chunks) -> None:
        self._sock = sock
        self._chunks = itertools.cycle(chunks)

    def recv_into(self, buffer, nbytes: int = 0) -> int:
        size = min(nbytes or len(buffer), next(self._chunks))
        return self._sock.recv_into(buffer, size)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class Peer:
    """The server's end of a socketpair; writes run on a thread."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._threads = []

    def send(self, data: bytes, *, delay: float = 0.0) -> None:
        def write():
            time.sleep(delay)
            try:
                self.sock.sendall(data)
            except OSError:  # the client closed after refusing the stream
                pass

        thread = threading.Thread(target=write, daemon=True)
        thread.start()
        self._threads.append(thread)

    def close(self) -> None:
        for thread in self._threads:
            thread.join(timeout=10)
        self.sock.close()
        assert not any(thread.is_alive() for thread in self._threads)


@contextlib.contextmanager
def connect(transport="tcp", chunks=None, timeout=5.0):
    """A client on one end of a socketpair; yields ``(client, peer)``."""
    ours, theirs = socket.socketpair()
    theirs.settimeout(10.0)
    wrapped = ours if chunks is None else ChunkedSocket(ours, chunks)
    if transport == "ws":
        theirs.sendall(WS_REPLY)
    peer = Peer(theirs)
    with mock.patch.object(
        client_module.socket, "create_connection", lambda *a, **k: wrapped
    ):
        client = ServeClient("peer", 0, transport=transport, timeout=timeout)
    try:
        yield client, peer
    finally:
        client.close()
        peer.close()


def frame(body: bytes, transport: str) -> bytes:
    head = ws_frame_head(len(body)) if transport == "ws" else frame_head(len(body))
    return head + body


def event_bytes(header: EventHeader, sub: int, payload: bytes, transport: str) -> bytes:
    prefix = ws_frame_head if transport == "ws" else frame_head
    return b"".join(header.framed_parts(sub, payload, prefix))


def body_of(framed: bytes, transport: str) -> bytes:
    """Strip one frame's transport head (short frames only)."""
    if transport == "tcp":
        return framed[4:]
    length = framed[1] & 0x7F
    return framed[{126: 4, 127: 10}.get(length, 2) :]


def assert_same(got, expected) -> None:
    """Equal headers, key order included, and equal payload bytes."""
    assert list(got[0].items()) == list(expected[0].items())
    assert type(got[1]) is bytes and got[1] == expected[1]


# ----------------------------------------------------------------------
# Decode-once equals json.loads
# ----------------------------------------------------------------------
KEYS = st.text(min_size=1, max_size=8).filter(
    lambda key: key not in ("event", "sub", "skipped")
)
SCALARS = st.one_of(
    st.text(max_size=12),
    st.sampled_from([',"sub":', ',"sub":7}', '"sub":1', "Störm ☂", "\\", '"']),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)
SUBS = st.one_of(st.just(0), st.integers(0, 2**70))


@st.composite
def event_headers(draw):
    fields = {"event": draw(st.one_of(st.sampled_from(["batch", "frame"]), st.text()))}
    fields.update(draw(st.dictionaries(KEYS, SCALARS, max_size=4)))
    if draw(st.booleans()):
        fields["nested"] = {"a": draw(SCALARS), "sub": draw(SUBS)}
    header = EventHeader(fields)
    if draw(st.booleans()):
        header = header.with_skipped(draw(st.integers(0, 10**6)))
    return header


@st.composite
def wire_streams(draw):
    """Events of a few publishes, interleaved with each other and replies."""
    publishes = draw(st.lists(event_headers(), min_size=1, max_size=4))
    pending = [
        [(header, sub) for sub in draw(st.lists(SUBS, min_size=1, max_size=6))]
        for header in publishes
    ]
    payloads = draw(st.lists(st.binary(max_size=300), min_size=1, max_size=4))
    replies = draw(st.integers(0, 4))
    stream, reply_ids = [], itertools.count(1)
    while any(pending):
        if replies and draw(st.booleans()):
            replies -= 1
            note = draw(st.text(max_size=10))
            stream.append(("reply", {"id": next(reply_ids), "ok": True, "note": note}))
            continue
        source = draw(st.sampled_from([p for p in pending if p]))
        header, sub = source.pop(0)
        stream.append(("event", (header, sub, draw(st.sampled_from(payloads)))))
    return stream


@pytest.mark.parametrize("transport", ["tcp", "ws"])
@settings(max_examples=60, deadline=None)
@given(
    stream=wire_streams(),
    chunks=st.lists(
        st.one_of(st.integers(1, 16), st.integers(1, 65536)), min_size=1, max_size=5
    ),
)
def test_decode_once_equals_json_loads(transport, stream, chunks):
    wire, expected = [], []
    for kind, item in stream:
        if kind == "reply":
            framed = frame(encode_message(item), transport)
        else:
            framed = event_bytes(*item, transport)
        wire.append(framed)
        expected.append((kind, decode_message(body_of(framed, transport))))
    with connect(transport, chunks) as (client, peer):
        peer.send(b"".join(wire))
        for kind, reference in expected:
            if kind == "reply":
                assert_same(client.request({"op": "ping"}), reference)
                continue
            got = client.next_event(timeout=5)
            assert_same(got, reference)
            got[0].clear()  # a caller's edit reaches no later header
            got[0]["event"] = "edited"


@pytest.fixture
def parses(monkeypatch):
    """The header texts ``json.loads`` parses during the test."""
    seen = []
    real_loads = json.loads
    monkeypatch.setattr(
        protocol.json, "loads", lambda text: seen.append(text) or real_loads(text)
    )
    return seen


@pytest.mark.parametrize("transport", ["tcp", "ws"])
def test_one_publish_parses_its_header_once(parses, transport):
    header = EventHeader({"event": "batch", "query": "Q0", "count": 3, "token": "t"})
    with connect(transport) as (client, peer):
        peer.send(b"".join(event_bytes(header, sub, b"xyz", transport) for sub in range(400)))
        for sub in range(400):
            got, payload = client.next_event(timeout=5)
            assert list(got.items()) == list(dict(header, sub=sub).items())
            assert payload == b"xyz"
    assert len(parses) == 1


def test_a_reply_between_events_keeps_the_memo(parses):
    header = EventHeader({"event": "frame", "view": "V0", "frame_index": 2})
    with connect() as (client, peer):
        peer.send(
            event_bytes(header, 1, b"", "tcp")
            + frame(encode_message({"id": 1, "ok": True}), "tcp")
            + event_bytes(header, 2, b"", "tcp")
        )
        assert client.request({"op": "ping"})[0] == {"id": 1, "ok": True}
        assert [client.next_event()[0]["sub"] for _ in range(2)] == [1, 2]
    assert len(parses) == 2  # the first event and the reply


def test_an_edited_header_does_not_reach_the_next_one():
    header = EventHeader({"event": "batch", "query": "Q0", "count": 1, "token": "t"})
    with connect() as (client, peer):
        peer.send(b"".join(event_bytes(header, sub, b"p", "tcp") for sub in (5, 6)))
        first, _ = client.next_event()
        first["query"] = "edited"
        del first["count"]
        second, _ = client.next_event()
    assert list(second.items()) == list(dict(header, sub=6).items())


@pytest.mark.parametrize(
    "head",
    [
        b'{"event":"x","sub":07}',  # leading zero: not JSON
        b'{"event":"x","sub":7 }',  # same parse, other bytes
        b'{"event":"x","sub":7}}',
        b'{"event":"x","sub":-7}',
        b'{"event":"x","sub":' + b"9" * 5000 + b"}",  # past int()'s digit limit
    ],
)
def test_a_near_miss_goes_through_json_loads(head):
    memo = EventMemo()
    memo.learn(b'{"event":"x","sub":3}', {"event": "x", "sub": 3})
    body = frame_head(len(head)) + head
    try:
        expected = decode_message(body)
    except ServeError as exc:
        with pytest.raises(ServeError, match=str(exc)[:20]):
            decode_message(body, memo)
    else:
        assert decode_message(body, memo) == expected


@pytest.mark.parametrize(
    "head",
    [
        b'{"event":"x","sub":3 }',  # not the canonical tail
        b'{"event":"x","sub": 3}',
        b'{"event":"x","sub":1,"sub":3}',  # "sub" twice
        b'{"sub":3,"event":"x"}',  # "sub" not last
        b'{"op":"x","sub":3}',  # not an event
        b'{"event":"x","sub":-3}',
        b'{"event":"x","sub":true}',
        b'{"event":"x","list":[1],"sub":3}',  # a mutable value
        b'{"event":"x","nested":{"sub":1},"sub":3}',
    ],
)
def test_only_a_canonical_event_header_is_memoised(head):
    memo = EventMemo()
    decode_message(frame_head(len(head)) + head, memo)
    assert memo.prefix is None


# ----------------------------------------------------------------------
# Size cap and fragments
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["tcp", "ws"])
def test_a_length_over_the_cap_is_refused_before_buffering(transport):
    if transport == "ws":
        head = bytes([0x82, 127]) + (MAX_MESSAGE_BYTES + 1).to_bytes(8, "big")
    else:
        head = b"\xff\xff\xff\xff"
    with connect(transport) as (client, peer):
        peer.send(head + bytes(8 * 2**20))
        with pytest.raises(ServeError, match="exceeds"):
            client.next_event(timeout=5)
        assert len(client._buffer) < MAX_MESSAGE_BYTES
        client.close()  # the peer's blocked write fails and its thread ends


def test_a_websocket_fragment_is_refused():
    body = encode_message({"event": "frame", "sub": 1})
    with connect("ws") as (client, peer):
        peer.send(bytes([0x02, len(body)]) + body)  # FIN cleared
        with pytest.raises(ServeError, match="fragmented"):
            client.next_event(timeout=5)


def test_a_ping_is_answered_in_place():
    body = encode_message({"event": "frame", "sub": 2})
    with connect("ws") as (client, peer):
        peer.sock.sendall(
            ws_encode_frame(b"hi", opcode=0x9) + ws_frame_head(len(body)) + body
        )
        assert client.next_event(timeout=5) == ({"event": "frame", "sub": 2}, b"")
        sent = peer.sock.recv(65536)  # the handshake request, then the pong
    assert sent.endswith(ws_encode_frame(b"hi", opcode=0xA, mask=True))


def test_frames_sent_with_the_handshake_reply_are_read():
    body = encode_message({"event": "frame", "sub": 4}, b"left")
    ours, theirs = socket.socketpair()
    theirs.sendall(WS_REPLY + ws_frame_head(len(body)) + body)
    with mock.patch.object(
        client_module.socket, "create_connection", lambda *a, **k: ours
    ):
        client = ServeClient("peer", 0, transport="ws", timeout=5)
    with client:
        assert client.next_event() == ({"event": "frame", "sub": 4}, b"left")
    theirs.close()


# ----------------------------------------------------------------------
# Timeouts and partial messages
# ----------------------------------------------------------------------
def test_an_event_timeout_leaves_requests_their_own():
    with connect(timeout=5.0) as (client, peer):
        with pytest.raises(ServeError, match="no event within 0.05 seconds"):
            client.next_event(timeout=0.05)
        peer.send(frame(encode_message({"id": 1, "ok": True}), "tcp"), delay=0.3)
        assert client.request({"op": "ping"})[0] == {"id": 1, "ok": True}


@pytest.mark.parametrize("transport", ["tcp", "ws"])
def test_a_message_cut_by_a_timeout_completes_later(transport):
    header = EventHeader({"event": "frame", "view": "V0", "frame_index": 0})
    framed = event_bytes(header, 9, bytes(range(200)), transport)
    with connect(transport) as (client, peer):
        peer.sock.sendall(framed[:57])
        with pytest.raises(ServeError, match="no event within"):
            client.next_event(timeout=0.05)
        peer.sock.sendall(framed[57:])
        got = client.next_event(timeout=5)
    assert_same(got, (dict(header, sub=9), bytes(range(200))))


@pytest.mark.parametrize("transport", ["tcp", "ws"])
def test_a_16_mib_reply_read_in_64_kib_pieces(transport):
    payload = bytes(range(256)) * (16 * 2**20 // 256)
    reply = encode_message({"id": 1, "ok": True, "count": 1}, payload)
    with connect(transport, chunks=[65536]) as (client, peer):
        peer.send(frame(reply, transport))
        header, got = client.request({"op": "fetch"})
    assert header == {"id": 1, "ok": True, "count": 1}
    assert got == payload
