"""The shared columnar codec: round-trips and error surface."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import StreamError
from repro.streams import TupleBatch
from repro.streams import codec
from repro.streams.codec import (
    decode_tuple_batch,
    decode_view_frame,
    encode_tuple_batch,
    encode_view_frame,
    pack_column,
    rebuild_tuple_batch,
    reduce_tuple_batch,
    unpack_column,
)
from repro.views.frames import ViewFrame


def make_batch(n: int = 5, **kwargs) -> TupleBatch:
    return TupleBatch(
        "rain",
        t=np.linspace(0.0, 1.0, n),
        x=np.arange(n, dtype=float),
        y=np.arange(n, dtype=float) * 2,
        value=np.linspace(-1.0, 1.0, n),
        sensor_id=np.arange(n, dtype=np.int64),
        tuple_id=np.arange(100, 100 + n, dtype=np.int64),
        **kwargs,
    )


def assert_batches_equal(a: TupleBatch, b: TupleBatch) -> None:
    assert a.attribute == b.attribute
    assert len(a) == len(b)
    for name in ("t", "x", "y", "value", "sensor_id", "tuple_id"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype
        np.testing.assert_array_equal(left, right)
    assert a.meta == b.meta
    assert set(a.extra) == set(b.extra)
    for name in a.extra:
        np.testing.assert_array_equal(a.extra[name], b.extra[name])


class TestPackColumn:
    @pytest.mark.parametrize(
        "array",
        [
            np.arange(6, dtype=np.float64),
            np.arange(6, dtype=np.int64),
            np.arange(6, dtype=np.int32),
            np.array([True, False, True]),
            np.array([], dtype=np.float64),
            np.arange(12, dtype=np.float64).reshape(3, 4),
        ],
        ids=["f64", "i64", "i32", "bool", "empty", "2d"],
    )
    def test_round_trip_preserves_dtype_shape_values(self, array):
        got = unpack_column(pack_column(array))
        assert got.dtype == array.dtype
        assert got.shape == array.shape
        np.testing.assert_array_equal(got, array)
        assert got.flags.writeable

    def test_non_contiguous_columns_pack_correctly(self):
        base = np.arange(20, dtype=np.float64)
        strided = base[::2]
        assert not strided.flags.c_contiguous or strided.base is not None
        got = unpack_column(pack_column(strided))
        np.testing.assert_array_equal(got, strided)

    def test_fortran_order_round_trips(self):
        array = np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4))
        got = unpack_column(pack_column(array))
        np.testing.assert_array_equal(got, array)

    def test_object_columns_pass_through_unpacked(self):
        column = np.empty(2, dtype=object)
        column[:] = [(0, 1), None]
        assert pack_column(column) is column
        assert unpack_column(column) is column


class TestReduceForm:
    def test_reduce_rebuild_round_trip(self):
        meta = {"batch_index": 7, "cell": (2, 3)}
        batch = make_batch(
            4,
            meta=meta,
            extra={"retries": np.arange(4, dtype=np.int64)},
        )
        rebuild, args = reduce_tuple_batch(batch)
        assert rebuild is rebuild_tuple_batch
        assert_batches_equal(rebuild(*args), batch)

    def test_snapshot_uses_the_shared_codec(self):
        # The checkpoint pickler packs result chunks with the codec's reduce
        # form, so checkpoints and the wire cannot drift apart.
        from repro.recovery import snapshot

        table = snapshot._SnapshotPickler.dispatch_table
        assert table[TupleBatch] is codec.reduce_tuple_batch


class TestTupleBatchWire:
    def test_plain_batch_round_trips(self):
        batch = make_batch(8)
        assert_batches_equal(decode_tuple_batch(encode_tuple_batch(batch)), batch)

    def test_empty_batch_round_trips(self):
        batch = make_batch(0)
        got = decode_tuple_batch(encode_tuple_batch(batch))
        assert len(got) == 0
        assert_batches_equal(got, batch)

    def test_object_value_column_round_trips(self):
        # Human-sensed attributes deliver object values: bools, strings,
        # None — the restricted-JSON path must carry them all.
        values = np.empty(4, dtype=object)
        values[:] = [True, "heavy", None, 0.5]
        batch = make_batch(4)
        batch.value = values
        got = decode_tuple_batch(encode_tuple_batch(batch))
        assert got.value.dtype == np.dtype(object)
        assert list(got.value) == [True, "heavy", None, 0.5]

    def test_meta_with_tuples_and_nested_dicts_round_trips(self):
        meta = {
            "cell": (2, 3),
            "nested": {"pairs": [(0, 1), (1, 2)], "label": "Storm"},
            "counts": [1, 2, 3],
        }
        batch = make_batch(3, meta=meta)
        got = decode_tuple_batch(encode_tuple_batch(batch))
        assert got.meta == meta
        assert isinstance(got.meta["cell"], tuple)
        assert isinstance(got.meta["nested"]["pairs"][0], tuple)

    def test_extra_columns_round_trip_binary_and_object(self):
        flags = np.empty(3, dtype=object)
        flags[:] = ["retry", None, "ok"]
        batch = make_batch(
            3,
            extra={"lat": np.array([0.1, 0.2, 0.3]), "flag": flags},
        )
        got = decode_tuple_batch(encode_tuple_batch(batch))
        assert_batches_equal(got, batch)

    def test_uncarryable_object_raises_stream_error(self):
        class Opaque:
            pass

        values = np.empty(1, dtype=object)
        values[:] = [Opaque()]
        batch = make_batch(1)
        batch.value = values
        with pytest.raises(StreamError, match="cannot carry"):
            encode_tuple_batch(batch)

    def test_non_string_dict_keys_rejected(self):
        batch = make_batch(1, meta={"bad": {1: "x"}})
        with pytest.raises(StreamError, match="string-keyed"):
            encode_tuple_batch(batch)

    def test_wrong_kind_rejected(self):
        frame = make_view_frame(0)
        with pytest.raises(StreamError, match="expected 'tuple-batch'"):
            decode_tuple_batch(encode_view_frame(frame))

    def test_truncated_payload_rejected(self):
        data = encode_tuple_batch(make_batch(6))
        with pytest.raises(StreamError, match="truncated"):
            decode_tuple_batch(data[:-8])

    def test_garbage_rejected(self):
        with pytest.raises(StreamError):
            decode_tuple_batch(b"\x00")
        with pytest.raises(StreamError):
            decode_tuple_batch(b"\x00\x00\x00\x02{}")


#: Runs in a fresh interpreter: a subscribed query over four grid cells, so
#: every pushed batch is a ``TupleBatch.concatenate`` of per-cell deliveries
#: carrying the handler's ``cell`` and ``incentive`` extra columns.
_DELIVERY_DIGEST_SCRIPT = """
import hashlib
from repro.config import BudgetConfig, EngineConfig
from repro.core.engine import CraqrEngine
from repro.core.query import AcquisitionalQuery
from repro.geometry import Rectangle, RectRegion
from repro.sensing import RainField, SensingWorld, WorldConfig
from repro.streams.codec import encode_tuple_batch

region = Rectangle(0.0, 0.0, 4.0, 4.0)
world = SensingWorld(WorldConfig(region=region, sensor_count=200, seed=7))
world.register_field(RainField(region))
engine = CraqrEngine(
    EngineConfig(grid_cells=4, seed=3, budget=BudgetConfig(initial=40, delta=5, limit=80)),
    world,
)
handle = engine.register_query(
    AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 4.0, 4.0), rate=8.0)
)
digest, cells = hashlib.sha256(), set()
def on_batch(batch):
    assert list(batch.extra) == ["cell", "incentive"], list(batch.extra)
    cells.update(map(tuple, batch.extra["cell"].tolist()))
    digest.update(encode_tuple_batch(batch))
handle.subscribe(on_batch)
engine.run(2)
assert len(cells) >= 2, cells
print(digest.hexdigest())
"""


def test_pushed_batch_bytes_do_not_depend_on_the_hash_seed():
    # ``encode_tuple_batch`` walks ``batch.extra`` in dict order; a merged
    # delivery used to take that order from a set of column names, so the
    # wire (and checkpoint) bytes flipped with PYTHONHASHSEED.
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    digests = []
    for hash_seed in ("0", "1"):
        result = subprocess.run(
            [sys.executable, "-c", _DELIVERY_DIGEST_SCRIPT],
            capture_output=True,
            text=True,
            timeout=120,
            env={
                "PYTHONPATH": str(src),
                "PYTHONHASHSEED": hash_seed,
                "PATH": "/usr/bin:/bin",
            },
        )
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def make_view_frame(index: int, *, tuple_keys: bool = True) -> ViewFrame:
    keys = np.empty(3, dtype=object)
    if tuple_keys:
        keys[:] = [(0, 0), (0, 1), (1, 1)]
    else:
        keys[:] = ["rain", "temp", "*"]
    return ViewFrame(
        frame_index=index,
        window_start=2.0 * index,
        window_end=2.0 * index + 2.0,
        keys=keys,
        values=np.array([0.5, -1.25, 3.75]),
        counts=np.array([4, 0, 9], dtype=np.int64),
    )


class TestViewFrameWire:
    def test_cell_keyed_frame_round_trips(self):
        frame = make_view_frame(5)
        got = decode_view_frame(encode_view_frame(frame))
        assert got.frame_index == 5
        assert got.window_start == 10.0 and got.window_end == 12.0
        assert [tuple(k) for k in got.keys] == [(0, 0), (0, 1), (1, 1)]
        assert all(isinstance(k, tuple) for k in got.keys)
        np.testing.assert_array_equal(got.values, frame.values)
        np.testing.assert_array_equal(got.counts, frame.counts)
        assert got.counts.dtype == np.int64

    def test_string_keyed_frame_round_trips(self):
        frame = make_view_frame(0, tuple_keys=False)
        got = decode_view_frame(encode_view_frame(frame))
        assert list(got.keys) == ["rain", "temp", "*"]

    def test_empty_frame_round_trips(self):
        frame = ViewFrame(
            frame_index=2,
            window_start=4.0,
            window_end=6.0,
            keys=np.empty(0, dtype=object),
            values=np.empty(0, dtype=np.float64),
            counts=np.empty(0, dtype=np.int64),
        )
        got = decode_view_frame(encode_view_frame(frame))
        assert got.is_empty and got.frame_index == 2

    def test_encoding_is_deterministic(self):
        frame = make_view_frame(1)
        assert encode_view_frame(frame) == encode_view_frame(frame)
