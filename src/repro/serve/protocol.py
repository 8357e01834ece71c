"""Wire framing for the serving layer.

Two transports share one message shape:

* **Raw TCP** — the client opens with the 8-byte magic ``CRAQR/1\\n``,
  then both directions exchange length-prefixed messages.
* **Websocket** — the client opens with an HTTP/1.1 upgrade request
  (detected because it starts with ``GET ``); after the RFC 6455
  handshake each message travels as one binary websocket frame whose
  payload is the same length-prefixed body.

A message body is::

    u32 header_len | JSON header (UTF-8) | binary payload

The JSON header carries the operation/reply/event fields; the payload
(optional) carries codec-encoded :class:`~repro.streams.TupleBatch` /
:class:`~repro.views.ViewFrame` bytes.  Multiple codec payloads in one
message are packed with :func:`pack_payloads` (u32 count, then u32
length + bytes per item) so a push event can deliver several closed
frames at once.

Everything here is transport mechanics only — no engine imports — so the
synchronous test client can reuse the exact encoder/decoder the asyncio
server speaks.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
from typing import Callable, List, Optional, Tuple

from ..errors import ServeError

__all__ = [
    "MAGIC",
    "PROTOCOL",
    "MAX_MESSAGE_BYTES",
    "EventHeader",
    "EventMemo",
    "encode_message",
    "decode_message",
    "read_message",
    "frame_head",
    "pack_payloads",
    "unpack_payloads",
    "ws_accept_key",
    "ws_frame_head",
    "ws_encode_frame",
    "ws_decode_frame",
]

#: Transport preamble a raw-TCP client must send before its first message.
MAGIC = b"CRAQR/1\n"

#: Protocol identification returned by the server's ``hello`` reply.
PROTOCOL = "craqr/1"

#: Hard per-message size cap (64 MiB) — a corrupt length prefix fails
#: fast instead of waiting on gigabytes that will never arrive.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_U32 = struct.Struct(">I")

#: RFC 6455 handshake GUID (fixed by the spec).
_WS_GUID = b"258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


def _header_json(header: dict) -> bytes:
    return json.dumps(header, separators=(",", ":")).encode("utf-8")


def encode_message(header: dict, payload: bytes = b"") -> bytes:
    """One message body: u32 header length, JSON header, raw payload."""
    head = _header_json(header)
    return b"".join((_U32.pack(len(head)), head, payload))


class EventHeader(dict):
    """A push-event header whose JSON is serialised once, at publish.

    ``open_json`` is the header's wire JSON without its closing brace, so
    the fields that differ per subscriber are appended as bytes:
    :meth:`framed_parts` emits exactly what
    ``encode_message(dict(header, sub=sub), payload)`` would, and
    :meth:`with_skipped` matches ``dict(header, skipped=count)``.  The
    fields must be non-empty and must not already hold the appended keys.
    """

    __slots__ = ("open_json",)

    def __init__(self, fields: dict, open_json: Optional[bytes] = None) -> None:
        super().__init__(fields)
        self.open_json = _header_json(fields)[:-1] if open_json is None else open_json

    def with_skipped(self, count: int) -> "EventHeader":
        """This header reporting ``count`` events dropped before it."""
        return EventHeader(
            dict(self, skipped=count), b'%b,"skipped":%d' % (self.open_json, count)
        )

    def framed_parts(
        self, sub: int, payload: bytes, prefix: Callable[[int], bytes]
    ) -> Tuple[bytes, bytes, bytes, bytes]:
        """Subscription ``sub``'s framed message, left unjoined.

        ``prefix`` is the transport's :func:`frame_head` or
        :func:`ws_frame_head`; the payload is carried by reference.
        """
        head = b'%b,"sub":%d}' % (self.open_json, sub)
        return (
            prefix(4 + len(head) + len(payload)),
            _U32.pack(len(head)),
            head,
            payload,
        )


#: The value types an :class:`EventMemo` shares between decoded headers.
_SCALARS = (str, int, float, bool, type(None))


class EventMemo:
    """The decoding mirror of :class:`EventHeader`: one connection's last
    push-event header, so the next event of the same publish skips
    ``json.loads``.

    ``prefix`` is that header's wire JSON up to and including ``,"sub":``;
    ``fields`` is its parse without ``"sub"``.  A header that is exactly
    ``prefix`` + canonical digits + ``}`` parses to ``dict(fields,
    sub=int(digits))``, key order included.
    """

    __slots__ = ("prefix", "fields")

    def __init__(self) -> None:
        self.prefix: Optional[bytes] = None
        self.fields: dict = {}

    def recall(self, head: bytes) -> Optional[dict]:
        """``head``'s parse if it extends the memoised prefix, else ``None``."""
        prefix = self.prefix
        if prefix is None or not head.startswith(prefix) or head[-1] != 0x7D:  # }
            return None
        digits = head[len(prefix) : -1]
        if not digits.isdigit() or (digits[0] == 0x30 and len(digits) > 1):
            return None
        header = self.fields.copy()
        try:
            header["sub"] = int(digits)
        except ValueError:  # past int()'s digit limit: json.loads says why
            return None
        return header

    def learn(self, head: bytes, header: dict) -> None:
        """Memoise ``header`` (parsed from ``head``) if the next one can reuse it.

        Only an event whose last key is its one ``"sub"``, written in
        canonical digits, with every other value an immutable scalar:
        copies of ``fields`` then share nothing a caller can mutate.
        """
        if "event" not in header or next(reversed(header)) != "sub":
            return
        sub = header["sub"]
        if type(sub) is not int or sub < 0:
            return
        tail = b',"sub":%d}' % sub
        if not head.endswith(tail) or head.count(b'"sub":') != 1:
            return
        fields = dict(header)
        del fields["sub"]
        if all(type(value) in _SCALARS for value in fields.values()):
            self.prefix = head[: 7 - len(tail)]
            self.fields = fields


def decode_message(body, memo: Optional[EventMemo] = None) -> Tuple[dict, bytes]:
    """Split one message body (``bytes`` or a view) into (header, payload).

    With a ``memo`` (one per client connection), an event header that
    extends the last one's prefix is decoded without parsing its JSON.
    """
    if len(body) < 4:
        raise ServeError("wire message too short for a header length prefix")
    (head_len,) = _U32.unpack_from(body)
    stop = 4 + head_len
    if stop > len(body):
        raise ServeError("wire message truncated inside its JSON header")
    head = bytes(body[4:stop])
    payload = bytes(body[stop:])
    if memo is not None:
        header = memo.recall(head)
        if header is not None:
            return header, payload
    try:
        header = json.loads(head.decode("utf-8"))
    except ValueError as exc:
        raise ServeError(f"wire message header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ServeError("wire message header must be a JSON object")
    if memo is not None:
        memo.learn(head, header)
    return header, payload


async def read_message(reader: asyncio.StreamReader) -> Optional[Tuple[dict, bytes]]:
    """Read one length-prefixed message; ``None`` on clean EOF."""
    try:
        prefix = await reader.readexactly(4)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _U32.unpack(prefix)
    if length > MAX_MESSAGE_BYTES:
        raise ServeError(
            f"wire message of {length} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte cap"
        )
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return decode_message(body)


#: The raw-TCP transport's prefix for a ``length``-byte message body.
frame_head = _U32.pack


def pack_payloads(payloads: List[bytes]) -> bytes:
    """Pack several codec payloads into one message payload."""
    parts = [_U32.pack(len(payloads))]
    for item in payloads:
        parts.append(_U32.pack(len(item)))
        parts.append(item)
    return b"".join(parts)


def unpack_payloads(data) -> List[bytes]:
    """Invert :func:`pack_payloads`."""
    view = memoryview(data)
    if len(view) < 4:
        raise ServeError("packed payload list too short for its count prefix")
    (count,) = _U32.unpack(bytes(view[:4]))
    offset = 4
    items: List[bytes] = []
    for _ in range(count):
        if offset + 4 > len(view):
            raise ServeError("packed payload list truncated at an item length")
        (length,) = _U32.unpack(bytes(view[offset : offset + 4]))
        offset += 4
        if offset + length > len(view):
            raise ServeError("packed payload list truncated inside an item")
        items.append(bytes(view[offset : offset + length]))
        offset += length
    return items


# ----------------------------------------------------------------------
# Minimal RFC 6455 websocket framing
# ----------------------------------------------------------------------
def ws_accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for one handshake key."""
    digest = hashlib.sha1(client_key.strip().encode("ascii") + _WS_GUID).digest()
    return base64.b64encode(digest).decode("ascii")


def ws_frame_head(length: int, *, opcode: int = 0x2, mask: bool = False) -> bytes:
    """The bytes that precede a ``length``-byte payload in one FIN frame."""
    head = bytearray([0x80 | (opcode & 0x0F)])
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack(">H", length)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", length)
    if mask:
        head += b"\x00\x00\x00\x00"
    return bytes(head)


def ws_encode_frame(payload: bytes, *, opcode: int = 0x2, mask: bool = False) -> bytes:
    """One FIN websocket frame (binary by default).

    Client-to-server frames must set ``mask``; a fixed zero masking key
    keeps the framing deterministic (the spec requires the *presence* of
    the mask bit from clients, and XOR with zeros is the identity).
    """
    return ws_frame_head(len(payload), opcode=opcode, mask=mask) + payload


def _apply_mask(payload: bytes, key: bytes) -> bytes:
    if key == b"\x00\x00\x00\x00":
        return payload
    expanded = (key * (len(payload) // 4 + 1))[: len(payload)]
    return bytes(a ^ b for a, b in zip(payload, expanded))


async def ws_read_frame(reader: asyncio.StreamReader) -> Optional[Tuple[int, bytes]]:
    """Read one websocket frame; ``None`` on EOF.  Returns (opcode, payload)."""
    try:
        head = await reader.readexactly(2)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    fin = head[0] & 0x80
    opcode = head[0] & 0x0F
    if not fin:
        raise ServeError("fragmented websocket frames are not supported")
    masked = head[1] & 0x80
    length = head[1] & 0x7F
    try:
        if length == 126:
            (length,) = struct.unpack(">H", await reader.readexactly(2))
        elif length == 127:
            (length,) = struct.unpack(">Q", await reader.readexactly(8))
        if length > MAX_MESSAGE_BYTES:
            raise ServeError(
                f"websocket frame of {length} bytes exceeds the "
                f"{MAX_MESSAGE_BYTES}-byte cap"
            )
        key = await reader.readexactly(4) if masked else b"\x00\x00\x00\x00"
        payload = await reader.readexactly(length) if length else b""
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return opcode, _apply_mask(payload, key)


def ws_decode_frame(data, start: int = 0) -> Tuple[int, bytes, int]:
    """Decode the websocket frame at ``data[start:]`` (synchronous client).

    Returns ``(opcode, payload, bytes_consumed)``; ``bytes_consumed`` is 0
    when the buffer does not yet hold a complete frame.  An unmasked
    payload is ``data``'s own slice (a view when ``data`` is a
    ``memoryview``).  A fragment or a length over
    :data:`MAX_MESSAGE_BYTES` raises :class:`ServeError` as soon as its
    head is in, as :func:`ws_read_frame` does.
    """
    if len(data) < start + 2:
        return 0, b"", 0
    if not data[start] & 0x80:
        raise ServeError("fragmented websocket frames are not supported")
    opcode = data[start] & 0x0F
    masked = data[start + 1] & 0x80
    length = data[start + 1] & 0x7F
    offset = start + 2
    if length == 126:
        if len(data) < offset + 2:
            return 0, b"", 0
        (length,) = struct.unpack_from(">H", data, offset)
        offset += 2
    elif length == 127:
        if len(data) < offset + 8:
            return 0, b"", 0
        (length,) = struct.unpack_from(">Q", data, offset)
        offset += 8
    if length > MAX_MESSAGE_BYTES:
        raise ServeError(
            f"websocket frame of {length} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte cap"
        )
    key = b"\x00\x00\x00\x00"
    if masked:
        if len(data) < offset + 4:
            return 0, b"", 0
        key = bytes(data[offset : offset + 4])
        offset += 4
    if len(data) < offset + length:
        return 0, b"", 0
    payload = _apply_mask(data[offset : offset + length], key)
    return opcode, payload, offset + length - start
