"""Opaque resumable offset tokens.

Every cursor-bearing server reply carries a token encoding exactly where
the next fetch should resume.  Tokens are base64-wrapped JSON of the
cursor's position — opaque to clients (treat as a string, hand it back
verbatim) but deliberately debuggable server-side.

The positions inside are the ones the storage layer already keeps across
checkpoints: a :class:`~repro.storage.ResultCursor` is ``(chunk_seq,
consumed)`` — reads consume whole chunks, so a token always resumes at a
chunk boundary — against a :class:`~repro.storage.QueryResultBuffer`
whose chunk sequence numbers and lifetime totals are pickled exactly, and
a :class:`~repro.views.FrameCursor` is the next frame index against a
:class:`~repro.views.ViewFrameBuffer`.  A token minted before a
checkpoint therefore resumes correctly against the restored engine —
the reconnect contract ``tests/serve/test_reconnect.py`` pins.

A token that points past retention surfaces the storage layer's
:class:`~repro.errors.StorageError` (with its "open a fresh cursor"
guidance) at first *fetch*, never a hang — minting and parsing tokens is
position arithmetic only.
"""

from __future__ import annotations

import base64
import binascii
import json

from ..errors import ServeError
from ..storage.result_buffer import QueryResultBuffer, ResultCursor
from ..views.frames import FrameCursor, ViewFrameBuffer

__all__ = [
    "result_token",
    "frame_token",
    "frame_token_at",
    "result_cursor_from_token",
    "frame_cursor_from_token",
]


def _encode(fields: dict) -> str:
    raw = json.dumps(fields, separators=(",", ":")).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii")


def _decode(token: str, *, kind: str) -> dict:
    try:
        fields = json.loads(base64.urlsafe_b64decode(token.encode("ascii")))
    except (ValueError, binascii.Error, AttributeError, UnicodeEncodeError) as exc:
        raise ServeError(f"malformed offset token {token!r}: {exc}") from exc
    if not isinstance(fields, dict) or fields.get("k") != kind:
        raise ServeError(
            f"offset token {token!r} is not a {kind!r} token; results and "
            f"frames use distinct token kinds"
        )
    return fields


def result_token(cursor: ResultCursor) -> str:
    """The resumable offset of one delivery cursor."""
    chunk_seq, _ = cursor.position  # the row is always 0: reads take whole chunks
    return _encode({"k": "results", "c": chunk_seq, "g": cursor.consumed})


def frame_token(cursor: FrameCursor) -> str:
    """The resumable offset of one view-frame cursor."""
    return frame_token_at(cursor.position)


def frame_token_at(next_index: int) -> str:
    """The frame token for an explicit next-unread lifetime index."""
    return _encode({"k": "frames", "n": next_index})


def result_cursor_from_token(buffer: QueryResultBuffer, token: str) -> ResultCursor:
    """Rebuild a delivery cursor at a token's position.

    Any other field is ignored — the ``"r": 0`` of a token minted by an
    older build among them — so the cursor resumes at chunk ``c``'s start.
    """
    fields = _decode(token, kind="results")
    try:
        chunk_seq, consumed = int(fields["c"]), int(fields["g"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"malformed offset token {token!r}: {exc}") from exc
    if chunk_seq < 0 or consumed < 0:
        raise ServeError(f"offset token {token!r} holds a negative position")
    return ResultCursor(buffer, chunk_seq, consumed)


def frame_cursor_from_token(buffer: ViewFrameBuffer, token: str) -> FrameCursor:
    """Rebuild a frame cursor at a token's position."""
    fields = _decode(token, kind="frames")
    try:
        next_index = int(fields["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"malformed offset token {token!r}: {exc}") from exc
    if next_index < 0:
        raise ServeError(f"offset token {token!r} holds a negative position")
    return FrameCursor(buffer, next_index)
