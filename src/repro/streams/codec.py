"""Shared binary codec for columnar payloads.

One module owns the raw-column packing that used to live privately inside
the checkpoint pickler (``repro/recovery/snapshot.py``) so the two places
that move :class:`~repro.streams.TupleBatch` / :class:`~repro.views.ViewFrame`
payloads off-process — checkpoint files and the serving layer's wire
protocol — cannot drift:

* :func:`pack_column` / :func:`unpack_column` — one numpy column as raw
  bytes + dtype + shape (object-dtype columns pass through unchanged for
  the pickle path).  Non-contiguous views are made contiguous on the way
  out; the unpacked column is always a fresh writable array.
* :func:`reduce_tuple_batch` / :func:`rebuild_tuple_batch` — the
  ``pickle``-reduce form the snapshot pickler dispatches
  :class:`TupleBatch` through (~3x smaller/faster than per-ndarray pickle
  framing).
* :func:`pack_tuple_batches` / :func:`unpack_tuple_batches` — a whole
  list of batches (a result buffer's chunks) as one columnar block per
  run of equal-layout batches, in plain builtins: one packed column per
  block instead of one per batch.
* :func:`encode_tuple_batch` / :func:`decode_tuple_batch` and
  :func:`encode_view_frame` / :func:`decode_view_frame` — self-contained,
  pickle-free wire encodings: a length-prefixed JSON header describing the
  columns followed by their raw bytes.  Object-dtype columns (group keys,
  per-tuple metadata dicts, boolean-ish human-sensed values) are carried
  as restricted JSON — numbers, strings, booleans, ``None``, lists, dicts
  and tuples (tagged, so they round-trip as tuples) — anything else
  raises :class:`~repro.errors.StreamError` instead of silently pickling
  arbitrary objects onto the wire.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import StreamError
from .batch import TupleBatch

__all__ = [
    "pack_column",
    "unpack_column",
    "reduce_tuple_batch",
    "rebuild_tuple_batch",
    "pack_tuple_batches",
    "unpack_tuple_batches",
    "encode_tuple_batch",
    "decode_tuple_batch",
    "encode_view_frame",
    "decode_view_frame",
]

#: Wire-format version embedded in every encoded payload header.
WIRE_VERSION = 1

_U32 = struct.Struct(">I")

# ----------------------------------------------------------------------
# Column packing (shared with the checkpoint pickler)
# ----------------------------------------------------------------------
def pack_column(array: np.ndarray):
    """One column as raw bytes + dtype + shape (object dtypes as-is)."""
    if array.dtype.hasobject:
        return array
    contiguous = np.ascontiguousarray(array)
    return (contiguous.tobytes(), array.dtype.str, array.shape)


def _column_view(packed) -> np.ndarray:
    """A packed column as a read-only view of its bytes (object dtypes as-is)."""
    if isinstance(packed, np.ndarray):
        return packed
    data, dtype, shape = packed
    return np.frombuffer(data, dtype=dtype).reshape(shape)


def unpack_column(packed) -> np.ndarray:
    """Invert :func:`pack_column` into a fresh, writable array."""
    if isinstance(packed, np.ndarray):
        return packed
    return _column_view(packed).copy()


def rebuild_tuple_batch(attribute, columns, meta, extra) -> TupleBatch:
    """Rebuild a :class:`TupleBatch` from its packed-column reduce form."""
    t, x, y, value, sensor_id, tuple_id = (unpack_column(c) for c in columns)
    return TupleBatch(
        attribute, t, x, y, value, sensor_id, tuple_id,
        meta=meta,
        extra={name: unpack_column(c) for name, c in extra.items()},
    )


def reduce_tuple_batch(batch: TupleBatch):
    """The ``pickle``-reduce form of a batch (used by the snapshot pickler)."""
    columns = tuple(
        pack_column(c)
        for c in (batch.t, batch.x, batch.y, batch.value, batch.sensor_id, batch.tuple_id)
    )
    extra = {name: pack_column(c) for name, c in batch.extra.items()}
    return rebuild_tuple_batch, (batch.attribute, columns, batch.meta, extra)


def _main_columns(batch: TupleBatch) -> Tuple[np.ndarray, ...]:
    return (batch.t, batch.x, batch.y, batch.value, batch.sensor_id, batch.tuple_id)


def _layout(batch: TupleBatch) -> tuple:
    """What batches must share to be concatenated column by column."""
    return (
        batch.attribute,
        tuple((c.dtype, c.shape[1:]) for c in _main_columns(batch)),
        tuple((name, c.dtype, c.shape[1:]) for name, c in batch.extra.items()),
    )


def _pack_block(run: List[TupleBatch]) -> tuple:
    first = run[0]
    columns = tuple(
        pack_column(np.concatenate(parts)) for parts in zip(*map(_main_columns, run))
    )
    extra = {
        name: pack_column(np.concatenate([b.extra[name] for b in run]))
        for name in first.extra
    }
    return (first.attribute, [len(b) for b in run], [b.meta for b in run], columns, extra)


def pack_tuple_batches(batches: Sequence[TupleBatch]) -> List[tuple]:
    """Many batches as one columnar block per run of equal-layout batches.

    A layout is the attribute and every column's name, dtype and trailing
    shape.  Each block keeps its batches' lengths and ``meta`` dicts, and
    holds each column once, concatenated over the run and packed with
    :func:`pack_column`; the result is plain builtins (plus object-dtype
    arrays), so pickling it names no new global.
    :func:`unpack_tuple_batches` inverts it.
    """
    blocks: List[tuple] = []
    run: List[TupleBatch] = []
    run_layout = None
    for batch in batches:
        layout = _layout(batch)
        if run and layout != run_layout:
            blocks.append(_pack_block(run))
            run = []
        run.append(batch)
        run_layout = layout
    if run:
        blocks.append(_pack_block(run))
    return blocks


def unpack_tuple_batches(blocks: Sequence[tuple]) -> List[TupleBatch]:
    """Invert :func:`pack_tuple_batches`: the batches, in order.

    Every column of every batch is a fresh, writable copy of its rows —
    never a view of the block — so dropping one batch frees its memory.
    """
    batches: List[TupleBatch] = []
    for attribute, lengths, metas, columns, extra in blocks:
        main = [_column_view(c) for c in columns]
        extra_columns = {name: _column_view(c) for name, c in extra.items()}
        start = 0
        for length, meta in zip(lengths, metas):
            stop = start + length
            t, x, y, value, sensor_id, tuple_id = (c[start:stop].copy() for c in main)
            batches.append(
                TupleBatch(
                    attribute, t, x, y, value, sensor_id, tuple_id,
                    meta=meta,
                    extra={
                        name: c[start:stop].copy()
                        for name, c in extra_columns.items()
                    },
                )
            )
            start = stop
    return batches


# ----------------------------------------------------------------------
# Restricted JSON for object payloads (no pickle on the wire)
# ----------------------------------------------------------------------
def _jsonable(value):
    """Convert one object-column entry into tagged, reversible JSON."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__t__": [_jsonable(v) for v in value]}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise StreamError(
                    f"wire codec only carries string-keyed dicts, got key {key!r}"
                )
        return {"__d__": {k: _jsonable(v) for k, v in value.items()}}
    raise StreamError(
        f"wire codec cannot carry a {type(value).__name__} value ({value!r}); "
        f"supported: numbers, strings, booleans, None, lists, tuples and "
        f"string-keyed dicts"
    )


def _from_jsonable(value):
    if isinstance(value, dict):
        if "__t__" in value and len(value) == 1:
            return tuple(_from_jsonable(v) for v in value["__t__"])
        if "__d__" in value and len(value) == 1:
            return {k: _from_jsonable(v) for k, v in value["__d__"].items()}
        return {k: _from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    return value


def _describe_column(name: str, array: np.ndarray, blobs: List[bytes]) -> dict:
    """Header entry for one column; binary columns append to ``blobs``."""
    array = np.asarray(array)
    if array.dtype.hasobject:
        return {
            "name": name,
            "json": [_jsonable(v) for v in array.ravel().tolist()],
            "shape": list(array.shape),
        }
    data, dtype, shape = pack_column(array)
    blobs.append(data)
    return {"name": name, "dtype": dtype, "shape": list(shape), "nbytes": len(data)}


def _read_column(entry, payload: memoryview, offset: int) -> Tuple[np.ndarray, int]:
    """One column of a wire frame, checked against its header entry.

    A malformed entry — no name, no shape of non-negative ints, JSON
    values of the wrong count, a dtype that is not one element of raw
    bytes, ``nbytes`` that disagree with the shape and dtype — raises
    :class:`~repro.errors.StreamError`, never what numpy trips over.
    """
    shape = entry.get("shape") if isinstance(entry, dict) else None
    if not isinstance(shape, list) or not all(
        type(size) is int and size >= 0 for size in shape
    ) or not isinstance(entry.get("name"), str):
        raise StreamError(f"wire column entry {entry!r:.80} has no valid name and shape")
    name = entry["name"]
    count = math.prod(shape)
    if "json" in entry:
        values = entry["json"]
        if not isinstance(values, list) or len(values) != count:
            raise StreamError(f"wire column {name!r} of shape {shape} holds no {count} JSON values")
        column = np.empty(count, dtype=object)
        column[:] = [_from_jsonable(v) for v in values]
        return column.reshape(shape), offset
    declared = entry.get("dtype")
    try:
        dtype = np.dtype(declared) if isinstance(declared, str) else None
    except TypeError:
        dtype = None
    if dtype is None or dtype.hasobject or dtype.subdtype is not None or not dtype.itemsize:
        raise StreamError(f"wire column {name!r} has no raw dtype: {declared!r}")
    nbytes = entry.get("nbytes")
    if nbytes != count * dtype.itemsize or type(nbytes) is not int:
        raise StreamError(
            f"wire column {name!r} declares {nbytes!r} bytes; shape {shape} of "
            f"{dtype.str} takes {count * dtype.itemsize}"
        )
    data = bytes(payload[offset : offset + nbytes])
    if len(data) != nbytes:
        raise StreamError(
            f"wire payload truncated: column {name!r} wants {nbytes} "
            f"bytes, {len(data)} available"
        )
    return unpack_column((data, dtype, tuple(shape))), offset + nbytes


def _frame_blob(header: dict, blobs: Sequence[bytes]) -> bytes:
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join([_U32.pack(len(head)), head] + list(blobs))


def _split_blob(data, *, expected_kind: str, columns: int, fields: dict) -> Tuple[dict, memoryview]:
    """A wire frame's JSON header and its payload, the header checked.

    The header must be a JSON object of ``expected_kind`` at this
    version, list exactly ``columns`` column entries, and hold each of
    ``fields`` (name -> accepted types); anything else raises
    :class:`~repro.errors.StreamError`, as a bad column entry does in
    :func:`_read_column`.
    """
    view = memoryview(data)
    if len(view) < 4:
        raise StreamError(f"wire payload too short for a {expected_kind} header")
    (head_len,) = _U32.unpack(bytes(view[:4]))
    if 4 + head_len > len(view):
        raise StreamError(f"wire payload truncated inside its {expected_kind} header")
    try:
        header = json.loads(bytes(view[4 : 4 + head_len]).decode("utf-8"))
    except ValueError as exc:
        raise StreamError(f"wire payload header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise StreamError(
            f"wire payload header is a JSON {type(header).__name__}, not a {expected_kind} header"
        )
    if header.get("kind") != expected_kind:
        raise StreamError(
            f"wire payload is a {header.get('kind')!r}, expected {expected_kind!r}"
        )
    if header.get("v") != WIRE_VERSION:
        raise StreamError(
            f"wire payload version {header.get('v')!r} is not supported "
            f"(this build speaks version {WIRE_VERSION})"
        )
    entries = header.get("columns")
    if not isinstance(entries, list) or len(entries) != columns:
        raise StreamError(f"a {expected_kind} header lists {columns} columns, not {entries!r:.80}")
    for key, kinds in fields.items():
        if not isinstance(header.get(key), kinds):
            raise StreamError(f"a {expected_kind} header has no valid {key!r}")
    return header, view[4 + head_len :]


# ----------------------------------------------------------------------
# TupleBatch wire encoding
# ----------------------------------------------------------------------
def encode_tuple_batch(batch: TupleBatch) -> bytes:
    """A batch as one self-contained, pickle-free byte string."""
    blobs: List[bytes] = []
    columns = [
        _describe_column(name, getattr(batch, name), blobs)
        for name in ("t", "x", "y", "value", "sensor_id", "tuple_id")
    ]
    extra = [_describe_column(name, col, blobs) for name, col in batch.extra.items()]
    header = {
        "kind": "tuple-batch",
        "v": WIRE_VERSION,
        "attribute": batch.attribute,
        "n": len(batch),
        "columns": columns,
        "extra": extra,
        "meta": _jsonable(dict(batch.meta)),
    }
    return _frame_blob(header, blobs)


def decode_tuple_batch(data) -> TupleBatch:
    """Invert :func:`encode_tuple_batch`."""
    header, payload = _split_blob(
        data, expected_kind="tuple-batch", columns=6,
        fields={"attribute": str, "extra": list, "meta": dict},
    )
    offset = 0
    main: List[np.ndarray] = []
    for entry in header["columns"]:
        column, offset = _read_column(entry, payload, offset)
        main.append(column)
    extra: Dict[str, np.ndarray] = {}
    for entry in header["extra"]:
        column, offset = _read_column(entry, payload, offset)
        extra[entry["name"]] = column
    meta = _from_jsonable(header["meta"])
    return TupleBatch(header["attribute"], *main, meta=meta, extra=extra)


# ----------------------------------------------------------------------
# ViewFrame wire encoding
# ----------------------------------------------------------------------
def encode_view_frame(frame) -> bytes:
    """A closed :class:`~repro.views.ViewFrame` as one byte string."""
    blobs: List[bytes] = []
    columns = [
        _describe_column("keys", frame.keys, blobs),
        _describe_column("values", frame.values, blobs),
        _describe_column("counts", frame.counts, blobs),
    ]
    header = {
        "kind": "view-frame",
        "v": WIRE_VERSION,
        "frame_index": frame.frame_index,
        "window_start": frame.window_start,
        "window_end": frame.window_end,
        "columns": columns,
    }
    return _frame_blob(header, blobs)


def decode_view_frame(data):
    """Invert :func:`encode_view_frame`."""
    from ..views.frames import ViewFrame

    header, payload = _split_blob(
        data, expected_kind="view-frame", columns=3,
        fields={"frame_index": int, "window_start": (int, float), "window_end": (int, float)},
    )
    offset = 0
    columns: List[np.ndarray] = []
    for entry in header["columns"]:
        column, offset = _read_column(entry, payload, offset)
        columns.append(column)
    keys, values, counts = columns
    return ViewFrame(
        frame_index=header["frame_index"],
        window_start=header["window_start"],
        window_end=header["window_end"],
        keys=keys,
        values=values,
        counts=counts,
    )
