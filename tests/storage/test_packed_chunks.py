"""Result buffers checkpoint their chunks as columnar blocks, exactly.

A buffer's ``__getstate__`` packs its retained chunks into one block per
run of equal-layout chunks (``repro.streams.codec.pack_tuple_batches``);
loading splits the blocks back into independent chunks.  Whatever the
buffer holds, a capture/restore round trip must give back every chunk's
columns (dtype, shape, bytes), ``meta``, order and sequence numbers, and
no two restored chunks may share memory.
"""

from __future__ import annotations

import io
import itertools
import pickle

import numpy as np
import pytest

from repro.recovery.snapshot import _dumps, _SnapshotUnpickler
from repro.storage import QueryResultBuffer
from repro.streams import TupleBatch, pack_tuple_batches, unpack_tuple_batches


def _batch(rows, start, *, attribute="rain", value=None, extra=True, meta=None):
    index = np.arange(start, start + rows)
    extras = {}
    if extra:
        extras = {
            "cell": np.stack([index % 4, index % 3], axis=1).astype(np.int64),
            "incentive": index * 0.25,
        }
    return TupleBatch(
        attribute,
        index * 0.5,
        np.sin(index),
        np.cos(index),
        index * 1.5 if value is None else value,
        index % 7,
        index,
        meta=meta if meta is not None else {},
        extra=extras,
    )


def _restore(obj):
    return _SnapshotUnpickler(io.BytesIO(_dumps(obj))).load()


def _columns(chunk):
    main = [chunk.t, chunk.x, chunk.y, chunk.value, chunk.sensor_id, chunk.tuple_id]
    return main + [chunk.extra[name] for name in chunk.extra]


def _assert_same_column(a, b):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    if a.dtype.hasobject:
        assert a.tolist() == b.tolist()
    else:
        assert a.tobytes() == b.tobytes()


def _assert_same_buffer(restored, original):
    assert restored._chunk_base == original._chunk_base
    assert restored._batch_bounds == original._batch_bounds
    assert restored.per_batch_counts == original.per_batch_counts
    assert restored.total_tuples == original.total_tuples
    assert restored.evicted_tuples == original.evicted_tuples
    assert len(restored._chunks) == len(original._chunks)
    for got, want in zip(restored._chunks, original._chunks):
        assert got.attribute == want.attribute
        assert got.meta == want.meta
        assert list(got.extra) == list(want.extra)
        for a, b in zip(_columns(got), _columns(want)):
            _assert_same_column(a, b)
    columns = [column for chunk in restored._chunks for column in _columns(chunk)]
    for a, b in itertools.combinations(columns, 2):
        assert not np.shares_memory(a, b)


def _buffer(**kwargs):
    return QueryResultBuffer(1, requested_rate=2.0, region_area=4.0, **kwargs)


def test_empty_buffer_round_trips():
    buffer = _buffer()
    restored = _restore(buffer)
    _assert_same_buffer(restored, buffer)
    assert len(restored.cursor().fetch_batch()) == 0


def test_evicted_buffer_with_a_cursor_part_way_round_trips():
    buffer = _buffer(retention_batches=3)
    start = 0
    cursor = None
    for batch in range(7):
        for rows in (3, 5):
            buffer.extend_batch(_batch(rows, start, meta={"batch": batch}))
            start += rows
        buffer.end_batch()
        if batch == 6:
            cursor = buffer.cursor()
            cursor.fetch_batch()
    buffer.extend_batch(_batch(4, start))
    buffer.end_batch()
    start += 4
    assert buffer._chunk_base > 0

    restored, restored_cursor = _restore((buffer, cursor))
    _assert_same_buffer(restored, buffer)
    assert restored_cursor.buffer is restored
    assert restored_cursor.position == cursor.position
    for target in (buffer, restored):
        target.extend_batch(_batch(6, start))
        target.end_batch()
    want, got = cursor.fetch_batch(), restored_cursor.fetch_batch()
    assert len(got) == len(want) > 0
    for a, b in zip(_columns(got), _columns(want)):
        _assert_same_column(a, b)
    assert got.meta == want.meta


def test_object_value_column_round_trips():
    buffer = _buffer()
    for start in (0, 4, 9):
        value = np.empty(4, dtype=object)
        value[:] = [True, None, "wet", start]
        buffer.extend_batch(_batch(4, start, value=value))
        buffer.end_batch()
    _assert_same_buffer(_restore(buffer), buffer)


def test_two_layouts_in_one_buffer_round_trip_in_order():
    buffer = _buffer()
    layouts = [
        dict(),
        dict(),
        dict(extra=False),
        dict(value=np.arange(3, dtype=np.float32)),
        dict(),
        dict(attribute="temp"),
    ]
    start = 0
    for options in layouts:
        buffer.extend_batch(_batch(3, start, **options))
        start += 3
        buffer.end_batch()
    assert len(pack_tuple_batches(buffer._chunks)) == 5
    _assert_same_buffer(_restore(buffer), buffer)


def test_buffer_chunks_do_not_go_through_the_per_batch_reducer():
    buffer = _buffer()
    for start in range(0, 40, 4):
        buffer.extend_batch(_batch(4, start))
    names = set()

    class Recording(pickle.Unpickler):
        def find_class(self, module, name):
            names.add((module, name))
            return super().find_class(module, name)

    Recording(io.BytesIO(_dumps(buffer))).load()
    assert ("repro.streams.codec", "rebuild_tuple_batch") not in names


@pytest.mark.parametrize("rows", [[1], [2, 0, 3], [5, 5, 5, 5]])
def test_unpack_inverts_pack(rows):
    batches = [_batch(n, 10 * i, meta={"i": i}) for i, n in enumerate(rows)]
    back = unpack_tuple_batches(pack_tuple_batches(batches))
    assert [len(b) for b in back] == rows
    for got, want in zip(back, batches):
        assert got.meta == want.meta
        for a, b in zip(_columns(got), _columns(want)):
            _assert_same_column(a, b)
            assert a.flags.writeable and a.flags.owndata
