"""The asyncio session server that puts one engine on the wire.

One :class:`Server` owns one :class:`~repro.core.CraqrEngine` and runs it
on a single event loop: every statement, cursor read and batch step
executes on the serving thread, so the engine needs no locks and the
serving layer inherits the engine's determinism.  Slow clients never
touch the batch path — push events go through
:class:`~repro.serve.fanout.FrameFanout`'s bounded per-subscriber queues
(serialize-once, declared backpressure policy), and each connection's
writer coroutine drains its own queues at whatever pace its socket
allows.

Sending one push event costs O(1) in the audience.  A connection keeps a
*ready* deque of its non-empty queues (the queues enlist themselves), so
the writer never scans its subscriptions: it takes one event per ready
queue in turn — per-subscription FIFO, round-robin across a connection's
subscriptions — and appends the subscriber's ``"sub"`` (and ``"skipped"``)
to the event's pre-encoded header as bytes.  Consecutive events of that
order that are one publish (the same header and payload objects) become
one grouped message, ``"subs":[id,...]`` in place of ``"sub"``, so a
publish that several of a connection's subscriptions share reaches the
socket, and the client, once.  It gathers replies and event messages
up to :data:`BURST_BYTES`, then issues one ``write`` and one ``drain``
(websocket: still one frame per message), so a stalled socket blocks its
own writer at ``drain()`` and pins at most its queue capacities, one burst
and the transport's high-water mark.

Operations (JSON header field ``op``):

``hello``
    Greets; returns server/protocol identification and engine shape.
``execute``
    Runs a statement script via
    :meth:`~repro.core.CraqrEngine.execute_script` (``on_error=
    "continue"``) and returns each statement's
    :func:`~repro.query.render.statement_row`: structured JSON fields
    (``SHOW`` rows mirror ``QuerySessionInfo`` / ``ViewSessionInfo``)
    plus the ``text`` the repl prints for it.
``run``
    Advances the engine ``batches`` batches, publishing the fan-out
    after every batch (client-driven cadence; a ``batch_interval``
    config drives the same loop server-side instead).
``fetch``
    Pull-mode read of one query's deliveries (one codec-encoded
    :class:`~repro.streams.TupleBatch` payload) or one view's closed
    frames (packed codec payloads).  Stateless: every reply carries the
    opaque resume token for the next fetch, and an incoming token
    rebuilds the cursor in O(1).  A token that lags past retention
    surfaces the storage layer's :class:`~repro.errors.StorageError`
    message as a structured error reply — never a hang.
``subscribe`` / ``unsubscribe``
    Push-mode tailing of deliveries (``query``) or closed frames
    (``view``), with per-subscription ``policy`` (``skip`` /
    ``disconnect``) and ``queue_events`` capacity; ``token`` resumes a
    previous subscription exactly-once.
``health``
    The repl's ``health`` report of one query (text).
``checkpoint``
    Writes an engine checkpoint; returns the path.
``ping`` / ``shutdown``
    Liveness echo; graceful server stop.

Replies carry the request's ``id`` and ``ok``; errors are structured
(``error`` message + ``error_type`` exception class).  Push events carry
``event`` instead of ``id``.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import CraqrError, ServeError
from ..query.render import health_text
from ..streams.codec import encode_tuple_batch, encode_view_frame
from .fanout import (
    BACKPRESSURE_POLICIES,
    DEFAULT_QUEUE_EVENTS,
    FrameFanout,
    SubscriberQueue,
)
from .protocol import (
    MAGIC,
    PROTOCOL,
    decode_message,
    encode_message,
    frame_head,
    pack_payloads,
    read_message,
    ws_accept_key,
    ws_encode_frame,
    ws_frame_head,
    ws_read_frame,
)
from .tokens import (
    frame_token,
    frame_cursor_from_token,
    result_cursor_from_token,
    result_token,
)

__all__ = ["ServeConfig", "Server", "serve_in_thread"]

#: Reply-queue bound per connection: a client that floods requests
#: without reading replies is disconnected rather than buffered forever.
MAX_PENDING_REPLIES = 1024

#: Bytes one writer gathers before it writes and drains.  A burst ends
#: with the message that reaches the bound, so a message larger than the
#: bound still goes out whole; what a stalled client can pin in the server
#: is its queue capacities, one burst and the transport's high-water mark.
BURST_BYTES = 256 * 1024


@dataclass
class ServeConfig:
    """Tunables of one :class:`Server`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 → ephemeral; read Server.bound_address after start()
    #: Server-driven batch cadence in seconds; ``None`` leaves batching
    #: to client ``run`` ops.
    batch_interval: Optional[float] = None
    #: Default backpressure policy of new subscriptions.
    backpressure: str = "skip"
    #: Default per-subscription queue capacity (events).
    queue_events: int = DEFAULT_QUEUE_EVENTS

    def __post_init__(self) -> None:
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ServeError(
                f"unknown backpressure policy {self.backpressure!r}; pick one "
                f"of {'/'.join(BACKPRESSURE_POLICIES)}"
            )
        if self.queue_events <= 0:
            raise ServeError("queue_events must be positive")
        if self.batch_interval is not None and self.batch_interval <= 0:
            raise ServeError("batch_interval must be positive or None")


class _Connection:
    """Per-client state: transport mode, reply queue, subscriptions."""

    _next_id = 0

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        _Connection._next_id += 1
        self.id = _Connection._next_id
        self.reader = reader
        self.writer = writer
        self.websocket = False
        #: (header, payload) replies awaiting the writer coroutine.
        self.replies: Deque[Tuple[dict, bytes]] = deque()
        #: subscription id -> SubscriberQueue (shared with the fanout).
        self.subscriptions: Dict[int, SubscriberQueue] = {}
        #: this client's non-empty queues, next to send first (the queues
        #: put themselves here; see SubscriberQueue.ready).
        self.ready: Deque[SubscriberQueue] = deque()
        self._next_sub = 0
        self.wake = asyncio.Event()
        self.closing = False
        self.writer_task: Optional[asyncio.Task] = None

    def next_sub_id(self) -> int:
        self._next_sub += 1
        return self._next_sub

    def enqueue_reply(self, header: dict, payload: bytes = b"") -> None:
        self.replies.append((header, payload))
        if len(self.replies) > MAX_PENDING_REPLIES:
            self.closing = True
        self.wake.set()

    def next_burst(self) -> List[bytes]:
        """The framed parts of the next write; empty when nothing is pending.

        Pending replies go first, then one event per ready queue in turn:
        a subscription's events stay in order and a long queue cannot
        starve its siblings.  Events popped one after another that carry
        the same published header and payload objects are framed as one
        grouped message, in pop order; a group ends at another event, at
        a queue with a pending skipped count (its header differs), at a
        closed queue, and before the message would pass
        :data:`~repro.serve.protocol.MAX_MESSAGE_BYTES`.  Gathering stops
        once :data:`BURST_BYTES` are reached.  Event headers and payloads
        are the published objects, by reference; the loop is per event,
        never per row.
        """
        parts: List[bytes] = []
        size = 0
        prefix = ws_frame_head if self.websocket else frame_head
        replies = self.replies
        while replies and size < BURST_BYTES:
            header, payload = replies.popleft()
            body = encode_message(header, payload)
            parts.append(prefix(len(body)))
            parts.append(body)
            size += len(body)
        ready = self.ready
        while ready and size < BURST_BYTES:
            queue = ready.popleft()
            event = queue.pop()
            if event is None:  # unsubscribed since it became ready
                continue
            if len(queue):
                ready.append(queue)
            header, payload = event
            if not ready or not ready[0].pops_next(header, payload):
                framed = header.framed_parts(queue.tag[1], payload, prefix)
            else:
                group = [queue]
                for other in ready:
                    if not other.pops_next(header, payload):
                        break
                    group.append(other)
                framed, count = header.group_parts(
                    [member.tag[1] for member in group], payload, prefix
                )
                for other in group[1:count]:
                    ready.popleft()
                    other.pop()
                    if len(other):
                        ready.append(other)
            parts += framed
            size += len(framed[2]) + len(payload)
        return parts


class Server:
    """Serve one engine to many clients (see the module docs)."""

    def __init__(self, engine, config: Optional[ServeConfig] = None) -> None:
        self._engine = engine
        self._config = config or ServeConfig()
        self._fanout = FrameFanout()
        self._connections: Dict[int, _Connection] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopping: Optional[asyncio.Event] = None
        self._batch_task: Optional[asyncio.Task] = None
        self._batch_error: Optional[BaseException] = None
        self.batches_served = 0

    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The served engine (touch only from the serving thread)."""
        return self._engine

    @property
    def config(self) -> ServeConfig:
        return self._config

    @property
    def bound_address(self) -> Tuple[str, int]:
        """The listening (host, port) once :meth:`start` has run."""
        if self._server is None or not self._server.sockets:
            raise ServeError("the server is not listening yet")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns (host, port)."""
        if self._server is not None:
            raise ServeError("the server has already started")
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self._config.host, self._config.port
        )
        if self._config.batch_interval is not None:
            self._batch_task = asyncio.get_running_loop().create_task(
                self._batch_loop()
            )
        return self.bound_address

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` op) is called.

        A batch that raises in the timed loop stops the server too: the
        error is re-raised here once the server has shut down.
        """
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        await self._shutdown()
        if self._batch_error is not None:
            raise self._batch_error

    async def stop(self) -> None:
        """Begin a graceful stop (idempotent)."""
        if self._stopping is not None:
            self._stopping.set()

    async def _shutdown(self) -> None:
        if self._batch_task is not None:
            self._batch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._batch_task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections.values()):
            conn.closing = True
            conn.wake.set()
        # Let each writer flush its pending replies (e.g. the shutdown
        # acknowledgement) before the transports go away.
        for conn in list(self._connections.values()):
            if conn.writer_task is not None:
                with contextlib.suppress(asyncio.TimeoutError, Exception):
                    await asyncio.wait_for(asyncio.shield(conn.writer_task), timeout=5)
        for conn in list(self._connections.values()):
            with contextlib.suppress(Exception):
                conn.writer.close()

    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        while True:
            await asyncio.sleep(self._config.batch_interval)
            try:
                self._run_batches(1)
            except Exception as exc:
                self._batch_error = exc
                self._stopping.set()
                return

    def _run_batches(self, batches: int) -> None:
        """Advance the engine and fan out — the only place batches run."""
        for _ in range(batches):
            self._engine.run_batch()
            self.batches_served += 1
            self._fanout.publish()
            self._wake_subscribed()
        self._drop_overflowed()

    def _wake_subscribed(self) -> None:
        for conn in self._connections.values():
            if conn.ready:
                conn.wake.set()

    def _drop_overflowed(self) -> None:
        """Disconnect clients whose ``disconnect``-policy queue overflowed."""
        for queue in self._fanout.overflowed_queues():
            conn_id = queue.tag[0] if isinstance(queue.tag, tuple) else None
            conn = self._connections.get(conn_id)
            self._fanout.unsubscribe(queue)
            if conn is None:
                continue
            conn.enqueue_reply(
                {
                    "event": "disconnect",
                    "reason": "backpressure",
                    "sub": queue.tag[1],
                }
            )
            conn.closing = True
            conn.wake.set()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer)
        try:
            preamble = await reader.readexactly(4)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        try:
            if preamble == b"GET ":
                if not await self._websocket_handshake(conn, preamble):
                    writer.close()
                    return
                conn.websocket = True
            else:
                rest = await reader.readexactly(len(MAGIC) - 4)
                if preamble + rest != MAGIC:
                    writer.write(b"craqr: bad magic\n")
                    await writer.drain()
                    writer.close()
                    return
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        self._connections[conn.id] = conn
        writer_task = asyncio.get_running_loop().create_task(self._writer_loop(conn))
        conn.writer_task = writer_task
        try:
            await self._reader_loop(conn)
        finally:
            conn.closing = True
            conn.wake.set()
            await writer_task
            for queue in conn.subscriptions.values():
                self._fanout.unsubscribe(queue)
            self._connections.pop(conn.id, None)
            with contextlib.suppress(Exception):
                writer.close()

    async def _websocket_handshake(self, conn: _Connection, preamble: bytes) -> bool:
        """Answer an RFC 6455 upgrade; returns False on a malformed request
        and on one that does not offer the :data:`PROTOCOL` subprotocol
        (a client of an older protocol would misread this one's events)."""
        try:
            # readuntil leaves anything past the blank line buffered, so a
            # client that pipelines its first frame with the handshake works.
            raw = preamble + await conn.reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, ConnectionError):
            return False
        head = raw.split(b"\r\n\r\n", 1)[0].decode("latin-1")
        key, offered = None, []
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "sec-websocket-key":
                key = value.strip()
            elif name == "sec-websocket-protocol":
                offered += [item.strip() for item in value.split(",")]
        if key is None or PROTOCOL not in offered:
            reason = "no Sec-WebSocket-Key" if key is None else f"{PROTOCOL} not offered"
            conn.writer.write(
                f"HTTP/1.1 400 Bad Request\r\n\r\ncraqr: {reason}\n".encode("latin-1")
            )
            await conn.writer.drain()
            return False
        accept = ws_accept_key(key)
        conn.writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Protocol: {PROTOCOL}\r\n"
                f"Sec-WebSocket-Accept: {accept}\r\n\r\n"
            ).encode("latin-1")
        )
        await conn.writer.drain()
        return True

    async def _reader_loop(self, conn: _Connection) -> None:
        while not conn.closing:
            if conn.websocket:
                frame = await ws_read_frame(conn.reader)
                if frame is None:
                    return
                opcode, body = frame
                if opcode == 0x8:  # close
                    return
                if opcode == 0x9:  # ping -> pong
                    conn.writer.write(ws_encode_frame(body, opcode=0xA))
                    await conn.writer.drain()
                    continue
                if opcode not in (0x1, 0x2):
                    continue
                try:
                    message = decode_message(body)
                except ServeError as exc:
                    conn.enqueue_reply(self._error_header(None, exc))
                    continue
            else:
                try:
                    message = await read_message(conn.reader)
                except ServeError as exc:
                    conn.enqueue_reply(self._error_header(None, exc))
                    conn.closing = True
                    return
                if message is None:
                    return
            header, payload = message
            self._dispatch(conn, header, payload)

    async def _writer_loop(self, conn: _Connection) -> None:
        """One write and one drain per burst; blocks only this client."""
        try:
            while True:
                parts = conn.next_burst()
                if parts:
                    conn.writer.write(b"".join(parts))
                    await conn.writer.drain()
                elif conn.closing:
                    return
                else:
                    conn.wake.clear()
                    await conn.wake.wait()
        except (ConnectionError, asyncio.CancelledError):
            return
        finally:
            with contextlib.suppress(Exception):
                conn.writer.close()

    # ------------------------------------------------------------------
    def _error_header(self, request_id, exc: Exception) -> dict:
        return {
            "id": request_id,
            "ok": False,
            "error": str(exc),
            "error_type": type(exc).__name__,
        }

    def _dispatch(self, conn: _Connection, header: dict, payload: bytes) -> None:
        request_id = header.get("id")
        op = header.get("op")
        try:
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise ServeError(f"unknown operation {op!r}")
            reply, reply_payload = handler(conn, header)
            reply.setdefault("id", request_id)
            reply.setdefault("ok", True)
            conn.enqueue_reply(reply, reply_payload)
        except CraqrError as exc:
            conn.enqueue_reply(self._error_header(request_id, exc))

    # -- operations ----------------------------------------------------
    def _op_hello(self, conn: _Connection, header: dict):
        engine = self._engine
        return {
            "server": "craqr-serve",
            "protocol": PROTOCOL,
            "batches_run": engine.batches_run,
            "queries": [h.query.label for h in engine.query_handles()],
            "views": [h.name for h in engine.view_handles()],
            "batch_interval": self._config.batch_interval,
        }, b""

    def _op_ping(self, conn: _Connection, header: dict):
        return {"pong": header.get("nonce")}, b""

    def _op_execute(self, conn: _Connection, header: dict):
        script = header.get("script")
        if not isinstance(script, str):
            raise ServeError("execute needs a 'script' string")
        outcomes = self._engine.execute_script(script, on_error="continue")
        return {"results": [outcome.row for outcome in outcomes]}, b""

    def _op_run(self, conn: _Connection, header: dict):
        batches = header.get("batches", 1)
        if not isinstance(batches, int) or batches <= 0:
            raise ServeError("run needs a positive integer 'batches'")
        if batches > 10_000:
            raise ServeError("run is capped at 10000 batches per request")
        engine = self._engine
        before = engine.total_tuples_delivered()
        self._run_batches(batches)
        return {
            "batches": batches,
            "batches_run": engine.batches_run,
            "tuples_delivered": engine.total_tuples_delivered() - before,
        }, b""

    def _op_fetch(self, conn: _Connection, header: dict):
        token = header.get("token")
        tail = bool(header.get("tail", False))
        if "query" in header:
            buffer = self._engine.query(header["query"]).buffer
            if token is not None:
                cursor = result_cursor_from_token(buffer, token)
            else:
                cursor = buffer.cursor(tail=tail)
            batch = cursor.fetch_batch()  # StorageError surfaces structured
            payload = encode_tuple_batch(batch) if len(batch) else b""
            return {
                "kind": "batch",
                "count": len(batch),
                "token": result_token(cursor),
            }, payload
        if "view" in header:
            buffer = self._engine.view(header["view"]).buffer
            if token is not None:
                cursor = frame_cursor_from_token(buffer, token)
            else:
                cursor = buffer.cursor(tail=tail)
            frames = cursor.fetch()  # StorageError surfaces structured
            payload = pack_payloads([encode_view_frame(f) for f in frames])
            return {
                "kind": "frames",
                "count": len(frames),
                "token": frame_token(cursor),
            }, payload
        raise ServeError("fetch needs a 'query' label or a 'view' name")

    def _op_subscribe(self, conn: _Connection, header: dict):
        policy = header.get("policy", self._config.backpressure)
        capacity = header.get("queue_events", self._config.queue_events)
        if not isinstance(capacity, int) or capacity <= 0:
            raise ServeError("queue_events must be a positive integer")
        token = header.get("token")
        sub_id = conn.next_sub_id()
        queue = SubscriberQueue(
            capacity=capacity, policy=policy, tag=(conn.id, sub_id), ready=conn.ready
        )
        if "query" in header:
            label = self._engine.query(header["query"]).query.label
            buffer = self._engine.query(label).buffer
            resume = self._fanout.subscribe_query(
                label, buffer, queue, token=token
            )
            target = {"query": label}
        elif "view" in header:
            handle = self._engine.view(header["view"])
            resume = self._fanout.subscribe_view(
                handle.name, handle.buffer, queue, token=token
            )
            target = {"view": handle.name}
        else:
            raise ServeError("subscribe needs a 'query' label or a 'view' name")
        conn.subscriptions[sub_id] = queue
        reply = {"sub": sub_id, "policy": policy, "token": resume}
        reply.update(target)
        return reply, b""

    def _op_unsubscribe(self, conn: _Connection, header: dict):
        sub_id = header.get("sub")
        queue = conn.subscriptions.pop(sub_id, None)
        if queue is None:
            raise ServeError(f"no subscription {sub_id!r} on this connection")
        self._fanout.unsubscribe(queue)
        return {"sub": sub_id, "unsubscribed": True}, b""

    def _op_health(self, conn: _Connection, header: dict):
        label = header.get("query")
        if not isinstance(label, str):
            raise ServeError("health needs a 'query' label")
        handle = self._engine.query(label)
        return {"query": handle.query.label, "text": health_text(self._engine, handle)}, b""

    def _op_checkpoint(self, conn: _Connection, header: dict):
        path = self._engine.checkpoint(header.get("path"))
        return {"path": str(path), "batches_run": self._engine.batches_run}, b""

    def _op_shutdown(self, conn: _Connection, header: dict):
        if self._stopping is not None:
            asyncio.get_running_loop().call_soon(self._stopping.set)
        return {"stopping": True}, b""


def serve_in_thread(engine, config: Optional[ServeConfig] = None):
    """Run a :class:`Server` on a daemon thread (tests and benchmarks).

    Returns ``(server, address, stop)`` where ``stop()`` shuts the server
    down and joins the thread.  The engine must not be touched from the
    calling thread while the server is live.
    """
    server = Server(engine, config)
    started = threading.Event()
    box: dict = {}

    def _runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop

        async def _main() -> None:
            box["address"] = await server.start()
            started.set()
            await server.serve_forever()

        try:
            loop.run_until_complete(_main())
        except Exception as exc:  # pragma: no cover - surfaced via box
            box["error"] = exc
            started.set()
        finally:
            loop.close()

    thread = threading.Thread(target=_runner, name="craqr-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=30) or "error" in box:
        raise ServeError(f"server failed to start: {box.get('error')}")

    def _stop() -> None:
        # A server that is already stopping (a shutdown op, a failed timed
        # batch) may close its loop before a scheduled stop() could run.
        if thread.is_alive() and not server._stopping.is_set():
            asyncio.run_coroutine_threadsafe(server.stop(), box["loop"])
        thread.join(timeout=30)

    return server, box["address"], _stop
