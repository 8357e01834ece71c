"""A small synchronous client for the serving layer.

:class:`ServeClient` speaks the same framing as the server (raw TCP with
the ``CRAQR/2`` magic by default, or websocket with ``transport="ws"``,
offering the ``craqr/2`` subprotocol)
over a plain blocking socket — no asyncio on the client side, so tests,
benchmarks and the demo script stay simple and deterministic.

Requests are matched to replies by id; push events that arrive while a
reply is awaited are buffered and read later with :meth:`next_event`.
Structured error replies raise :class:`~repro.errors.ServeError` carrying
the server-side exception class in ``error_type`` (so a fetch that lagged
past retention raises with ``error_type == "StorageError"`` and the
storage layer's original message).

A grouped event message (``"subs":[id,...]``: one publish that several
of this connection's subscriptions receive) is expanded on arrival into
one event per id, in list order: a fresh header dict each, the published
fields then ``"sub"``, all sharing the message's one payload ``bytes``.
Callers see the same ordered ``(header, payload)`` sequence as if every
subscription's copy had travelled alone.

The client reads as the server writes.  Both transports ``recv_into``
one ``bytearray`` and parse each message where it lies: its body reaches
:func:`~repro.serve.protocol.decode_message` as a view, and only the
header and payload are copied out.  The server encodes an event header
once per publish and, grouped, sends it to the connection once, so the
client parses it once.  The socket's timeout is switched only before a ``recv`` or a
send that needs another one, so a buffered event costs no socket call.
A message longer than :data:`~repro.serve.protocol.MAX_MESSAGE_BYTES`
and a fragmented websocket frame raise :class:`~repro.errors.ServeError`
before the body is buffered.
"""

from __future__ import annotations

import base64
import os
import socket
import struct
from collections import deque
from typing import Deque, List, Optional, Tuple

from ..errors import ServeError
from .protocol import (
    MAGIC,
    MAX_MESSAGE_BYTES,
    PROTOCOL,
    decode_message,
    encode_message,
    ws_decode_frame,
    ws_encode_frame,
)

__all__ = ["ServeClient"]

_U32 = struct.Struct(">I")

#: Initial receive buffer size; a longer message doubles it.
_RECV_BYTES = 65536


class ServeClient:
    """One blocking connection to a :class:`~repro.serve.Server`.

    Parameters
    ----------
    host / port:
        The server's bound address.
    transport:
        ``"tcp"`` (default) or ``"ws"`` for websocket framing.
    timeout:
        Socket timeout in seconds for connects, sends and reads.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        transport: str = "tcp",
        timeout: float = 30.0,
    ) -> None:
        if transport not in ("tcp", "ws"):
            raise ServeError(f"unknown transport {transport!r}; use 'tcp' or 'ws'")
        self._transport = transport
        self._timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        #: the timeout the socket holds now (see :meth:`_use_timeout`).
        self._sock_timeout = timeout
        #: received bytes; ``_buffer[_start:_end]`` is not read yet.
        self._buffer = bytearray(_RECV_BYTES)
        self._view = memoryview(self._buffer)
        self._start = self._end = 0
        self._next_id = 0
        #: push events received while awaiting replies, oldest first.
        self.events: Deque[Tuple[dict, bytes]] = deque()
        if transport == "ws":
            self._ws_handshake(host, port)
        else:
            self._sock.sendall(MAGIC)

    # ------------------------------------------------------------------
    def _ws_handshake(self, host: str, port: int) -> None:
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        request = (
            f"GET /craqr HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Upgrade: websocket\r\n"
            f"Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            f"Sec-WebSocket-Protocol: {PROTOCOL}\r\n"
            f"Sec-WebSocket-Version: 13\r\n\r\n"
        )
        self._sock.sendall(request.encode("latin-1"))
        while (head_end := self._buffer.find(b"\r\n\r\n", 0, self._end)) < 0:
            self._recv_more(self._timeout)
        status = bytes(self._buffer[: self._buffer.find(b"\r\n")])
        if b"101" not in status:
            raise ServeError(f"websocket handshake refused: {status!r}")
        self._start = head_end + 4  # frames sent with the reply stay buffered

    # ------------------------------------------------------------------
    def _use_timeout(self, timeout: Optional[float]) -> None:
        """Give the socket ``timeout`` unless it holds it already."""
        if timeout != self._sock_timeout:
            self._sock.settimeout(timeout)
            self._sock_timeout = timeout

    def _recv_more(self, timeout: Optional[float]) -> None:
        """Receive at least one byte after the unread tail.

        The unread tail moves to the front of the buffer first; a tail that
        fills the buffer is one message that outgrew it, so it doubles.
        """
        start, end = self._start, self._end
        if start:
            end -= start
            self._view[:end] = self._view[start : self._end]
            self._start, self._end = 0, end
        if end == len(self._buffer):
            grown = bytearray(2 * end)
            grown[:end] = self._view
            self._buffer, self._view = grown, memoryview(grown)
        self._use_timeout(timeout)
        received = self._sock.recv_into(self._view[end:])
        if not received:
            raise ServeError("server closed the connection")
        self._end = end + received

    def _read_message(self, timeout: Optional[float]) -> Tuple[dict, bytes]:
        """Block until one complete protocol message arrives.

        ``timeout`` bounds each ``recv`` this waits on.
        """
        if self._transport == "ws":
            while True:
                opcode, body, consumed = ws_decode_frame(
                    self._view[: self._end], self._start
                )
                if consumed:
                    self._start += consumed
                    if opcode == 0x9:  # ping -> pong
                        self._sock.sendall(ws_encode_frame(body, opcode=0xA, mask=True))
                        continue
                    if opcode == 0x8:
                        raise ServeError("server closed the websocket")
                    return decode_message(body)
                self._recv_more(timeout)
        while True:
            start = self._start
            if self._end - start >= 4:
                (length,) = _U32.unpack_from(self._buffer, start)
                if length > MAX_MESSAGE_BYTES:
                    raise ServeError(
                        f"wire message of {length} bytes exceeds the "
                        f"{MAX_MESSAGE_BYTES}-byte cap"
                    )
                stop = start + 4 + length
                if stop <= self._end:
                    self._start = stop
                    return decode_message(self._view[start + 4 : stop])
            self._recv_more(timeout)

    def _receive(self, timeout: Optional[float]) -> Optional[Tuple[dict, bytes]]:
        """Read one message: a reply is returned, push events go to
        :attr:`events` (a group expanded) and ``None`` is returned."""
        header, payload = self._read_message(timeout)
        if "event" not in header:
            return header, payload
        subs = header.pop("subs", None)
        if subs is None:
            self.events.append((header, payload))
            return None
        if not isinstance(subs, list):
            raise ServeError("grouped event's 'subs' is not a list")
        for sub in subs:
            event = header.copy()
            event["sub"] = sub
            self.events.append((event, payload))
        return None

    def _send_message(self, header: dict, payload: bytes = b"") -> None:
        body = encode_message(header, payload)
        self._use_timeout(self._timeout)
        if self._transport == "ws":
            self._sock.sendall(ws_encode_frame(body, mask=True))
        else:
            self._sock.sendall(_U32.pack(len(body)) + body)

    # ------------------------------------------------------------------
    def request(self, header: dict, payload: bytes = b"") -> Tuple[dict, bytes]:
        """Send one operation and block for its reply.

        Push events arriving first are buffered into :attr:`events`.
        Error replies raise :class:`~repro.errors.ServeError` with the
        server's message and ``error_type``.
        """
        self._next_id += 1
        request_id = self._next_id
        self._send_message(dict(header, id=request_id))
        while True:
            message = self._receive(self._timeout)
            if message is None:
                continue
            reply, reply_payload = message
            if reply.get("id") != request_id:
                continue  # a stale reply from a timed-out predecessor
            if not reply.get("ok", False):
                raise ServeError(
                    reply.get("error", "server error"),
                    error_type=reply.get("error_type", "ServeError"),
                )
            return reply, reply_payload

    def next_event(self, timeout: Optional[float] = None) -> Tuple[dict, bytes]:
        """The next push event (buffered or read from the socket).

        ``timeout`` (default: the constructor's) bounds each wait for
        bytes; an event already buffered is returned without a socket call.
        """
        if not self.events:
            wait = self._timeout if timeout is None else timeout
            try:
                while not self.events:
                    self._receive(wait)  # a reply with no waiter is dropped
            except socket.timeout as exc:
                raise ServeError(f"no event within {wait} seconds") from exc
        return self.events.popleft()

    # -- convenience wrappers ------------------------------------------
    def hello(self) -> dict:
        return self.request({"op": "hello"})[0]

    def execute(self, script: str) -> List[dict]:
        reply, _ = self.request({"op": "execute", "script": script})
        return reply["results"]

    def run(self, batches: int = 1) -> dict:
        return self.request({"op": "run", "batches": batches})[0]

    def fetch(
        self,
        *,
        query: Optional[str] = None,
        view: Optional[str] = None,
        token: Optional[str] = None,
        tail: bool = False,
    ) -> Tuple[dict, bytes]:
        header: dict = {"op": "fetch", "tail": tail}
        if query is not None:
            header["query"] = query
        if view is not None:
            header["view"] = view
        if token is not None:
            header["token"] = token
        return self.request(header)

    def subscribe(
        self,
        *,
        query: Optional[str] = None,
        view: Optional[str] = None,
        policy: Optional[str] = None,
        queue_events: Optional[int] = None,
        token: Optional[str] = None,
    ) -> dict:
        header: dict = {"op": "subscribe"}
        if query is not None:
            header["query"] = query
        if view is not None:
            header["view"] = view
        if policy is not None:
            header["policy"] = policy
        if queue_events is not None:
            header["queue_events"] = queue_events
        if token is not None:
            header["token"] = token
        return self.request(header)[0]

    def unsubscribe(self, sub: int) -> dict:
        return self.request({"op": "unsubscribe", "sub": sub})[0]

    def health(self, query: str) -> str:
        return self.request({"op": "health", "query": query})[0]["text"]

    def checkpoint(self, path: Optional[str] = None) -> str:
        header: dict = {"op": "checkpoint"}
        if path is not None:
            header["path"] = path
        return self.request(header)[0]["path"]

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})[0]

    def close(self) -> None:
        """Close the socket (idempotent)."""
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
