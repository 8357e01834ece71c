"""Shared builders for the serving-layer suite.

Every test serves the same deterministic workload — a small city world
with one rain query and one cell-grouped view — so reference runs (the
same engine driven in-process) and served runs (the same engine behind
``serve_in_thread``) can be compared byte-for-byte.  Byte identity is
checked through the wire codec itself: two frames are equal iff their
``encode_view_frame`` bytes are equal.
"""

from __future__ import annotations

import socket
from dataclasses import replace

import repro.core.query as _query_module
from repro.config import CheckpointConfig
from repro.core import CraqrEngine
from repro.core.query import QueryIdAllocator
from repro.geometry import Rectangle
from repro.sensing import (
    AlwaysRespond,
    RainField,
    RandomWaypointMobility,
    SensingWorld,
    TemperatureField,
    WorldConfig,
)
from repro.serve.protocol import (
    MAGIC,
    decode_message,
    encode_message,
    ws_encode_frame,
)
from repro.workloads import default_engine_config

from scaffolding import frame_message

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)

QUERY = "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 8 PER KM2 PER MIN AS Storm"
VIEW = "CREATE VIEW Rain ON Storm AS AVG(value) GROUP BY CELL WINDOW 2"


def simulate_fresh_process() -> None:
    """Reset the process-global query-id allocator (see tests/recovery)."""
    _query_module._query_ids = QueryIdAllocator()


def make_world(*, sensor_count: int = 80, seed: int = 11) -> SensingWorld:
    world = SensingWorld(
        WorldConfig(region=REGION, sensor_count=sensor_count, seed=seed),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.25, pause=0.5),
        participation_factory=lambda sensor_id: AlwaysRespond(),
    )
    world.register_field(RainField(REGION, band_width=1.2, period=60.0))
    world.register_field(TemperatureField(REGION))
    return world


def make_engine(
    *,
    checkpoint_dir=None,
    every: int = 2,
    retention_batches=None,
    view: bool = True,
) -> CraqrEngine:
    """One deterministic engine with the Storm query (and Rain view)."""
    simulate_fresh_process()
    config = default_engine_config(retention_batches=retention_batches)
    if checkpoint_dir is not None:
        config = replace(
            config,
            checkpoints=CheckpointConfig(directory=str(checkpoint_dir), every=every),
        )
    engine = CraqrEngine(config, make_world())
    engine.execute(QUERY)
    if view:
        engine.execute(VIEW)
    return engine


def reference_frames(batches: int):
    """The Rain view's frames from an uninterrupted in-process run."""
    engine = make_engine()
    engine.run(batches)
    return engine.view("Rain").frames()


def reference_deliveries(batches: int):
    """Storm's lifetime deliveries from an uninterrupted in-process run."""
    engine = make_engine()
    engine.run(batches)
    return engine.query("Storm").cursor().fetch_batch()


class RawWire:
    """A blocking socket that shows the server's bytes exactly as sent.

    :meth:`read` returns one framed message at a time — the frame bytes
    themselves next to the decoded header and payload — so a test can
    compare what the writer put on the socket with a reference encoding.
    :meth:`send` writes all its requests with one ``sendall``: the server's
    reader then handles them back to back, before its writer runs.
    """

    def __init__(self, host: str, port: int, transport: str = "tcp") -> None:
        self.websocket = transport == "ws"
        self._sock = socket.create_connection((host, port), timeout=30)
        if self.websocket:
            self._sock.sendall(
                (
                    f"GET /craqr HTTP/1.1\r\nHost: {host}:{port}\r\n"
                    "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                    "Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
                    "Sec-WebSocket-Version: 13\r\n\r\n"
                ).encode("latin-1")
            )
            response = b""
            while not response.endswith(b"\r\n\r\n"):
                response += self._exactly(1)
            assert b" 101 " in response.split(b"\r\n", 1)[0]
        else:
            self._sock.sendall(MAGIC)

    def _exactly(self, count: int) -> bytes:
        data = b""
        while len(data) < count:
            chunk = self._sock.recv(count - len(data))
            if not chunk:
                raise EOFError("server closed the connection")
            data += chunk
        return data

    def send(self, *headers: dict) -> None:
        frame = (
            (lambda body: ws_encode_frame(body, mask=True))
            if self.websocket
            else frame_message
        )
        self._sock.sendall(b"".join(frame(encode_message(h)) for h in headers))

    def read(self):
        """The next message as ``(frame bytes, header, payload)``."""
        if self.websocket:
            raw = self._exactly(2)
            length = raw[1] & 0x7F
            if length == 126:
                raw += self._exactly(2)
                length = int.from_bytes(raw[2:], "big")
            elif length == 127:
                raw += self._exactly(8)
                length = int.from_bytes(raw[2:], "big")
        else:
            raw = self._exactly(4)
            length = int.from_bytes(raw, "big")
        body = self._exactly(length)
        return (raw + body, *decode_message(body))

    def read_until_reply(self, request_id: int):
        """Messages up to and including the reply to ``request_id``."""
        messages = []
        while not messages or messages[-1][1].get("id") != request_id:
            messages.append(self.read())
        return messages

    def close(self) -> None:
        self._sock.close()
