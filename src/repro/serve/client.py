"""A small synchronous client for the serving layer.

:class:`ServeClient` speaks the same framing as the server (raw TCP with
the ``CRAQR/1`` magic by default, or websocket with ``transport="ws"``)
over a plain blocking socket — no asyncio on the client side, so tests,
benchmarks and the demo script stay simple and deterministic.

Requests are matched to replies by id; push events that arrive while a
reply is awaited are buffered and read later with :meth:`next_event`.
Structured error replies raise :class:`~repro.errors.ServeError` carrying
the server-side exception class in ``error_type`` (so a fetch that lagged
past retention raises with ``error_type == "StorageError"`` and the
storage layer's original message).
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
    decode_message,
    encode_message,
    ws_decode_frame,
    ws_encode_frame,
)

__all__ = ["ServeClient"]

_U32 = struct.Struct(">I")


class ServeClient:
    """One blocking connection to a :class:`~repro.serve.Server`.

    Parameters
    ----------
    host / port:
        The server's bound address.
    transport:
        ``"tcp"`` (default) or ``"ws"`` for websocket framing.
    timeout:
        Socket timeout in seconds for connects and reads.
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
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        #: received bytes; everything before ``_consumed`` has been read.
        self._buffer = b""
        self._consumed = 0
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
            f"Sec-WebSocket-Version: 13\r\n\r\n"
        )
        self._sock.sendall(request.encode("latin-1"))
        response = b""
        while b"\r\n\r\n" not in response:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ServeError("server closed during the websocket handshake")
            response += chunk
        head, _, rest = response.partition(b"\r\n\r\n")
        status = head.split(b"\r\n", 1)[0]
        if b"101" not in status:
            raise ServeError(f"websocket handshake refused: {status!r}")
        self._buffer = rest

    # ------------------------------------------------------------------
    def _recv_more(self) -> None:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ServeError("server closed the connection")
        # The only place read bytes are dropped: once per recv, not per message.
        self._buffer = self._buffer[self._consumed :] + chunk
        self._consumed = 0

    def _read_message(self) -> Tuple[dict, bytes]:
        """Block until one complete protocol message arrives."""
        if self._transport == "ws":
            while True:
                opcode, payload, consumed = ws_decode_frame(self._buffer, self._consumed)
                if consumed:
                    self._consumed += consumed
                    if opcode == 0x9:  # ping -> pong
                        self._sock.sendall(ws_encode_frame(payload, opcode=0xA, mask=True))
                        continue
                    if opcode == 0x8:
                        raise ServeError("server closed the websocket")
                    return decode_message(payload)
                self._recv_more()
        while True:
            start = self._consumed + 4
            if len(self._buffer) >= start:
                (length,) = _U32.unpack_from(self._buffer, self._consumed)
                if len(self._buffer) >= start + length:
                    self._consumed = start + length
                    return decode_message(self._buffer[start : start + length])
            self._recv_more()

    def _send_message(self, header: dict, payload: bytes = b"") -> None:
        body = encode_message(header, payload)
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
            reply, reply_payload = self._read_message()
            if "event" in reply:
                self.events.append((reply, reply_payload))
                continue
            if reply.get("id") != request_id:
                continue  # a stale reply from a timed-out predecessor
            if not reply.get("ok", False):
                raise ServeError(
                    reply.get("error", "server error"),
                    error_type=reply.get("error_type", "ServeError"),
                )
            return reply, reply_payload

    def next_event(self, timeout: Optional[float] = None) -> Tuple[dict, bytes]:
        """The next push event (buffered or read from the socket)."""
        if self.events:
            return self.events.popleft()
        previous = self._sock.gettimeout()
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            while True:
                message = self._read_message()
                if "event" in message[0]:
                    return message
                # A reply with no waiter (should not happen) is dropped.
        except socket.timeout as exc:
            raise ServeError(f"no event within {timeout} seconds") from exc
        finally:
            self._sock.settimeout(previous)

    # -- convenience wrappers ------------------------------------------
    def hello(self) -> dict:
        return self.request({"op": "hello"})[0]

    def execute(self, script: str, *, mode: str = "json") -> List[dict]:
        reply, _ = self.request({"op": "execute", "script": script, "mode": mode})
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
