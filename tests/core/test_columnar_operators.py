"""Seeded equivalence of the PMAT operators' batch paths vs the object path.

Every operator with a native ``process_batch`` must, for the same seed,
retain exactly the tuples its per-tuple ``process`` retains — the columnar
fast path is a pure performance switch, never a semantic one.
"""

import numpy as np
import pytest

from repro.core.pmat import (
    ClampOperator,
    FlattenOperator,
    MarkOperator,
    OutlierFilterOperator,
    PartitionOperator,
    SampleOperator,
    ShiftOperator,
    ThinOperator,
    UnionOperator,
)
from repro.geometry import Rectangle, RectRegion
from repro.pointprocess import ConstantIntensity, HomogeneousMDPP
from repro.streams import CollectingSink, SensorTuple, TupleBatch

CELL = Rectangle(0.0, 0.0, 1.0, 1.0)


def make_items(n=2000, seed=77, value="bool"):
    events = HomogeneousMDPP(float(n), CELL).sample(
        1.0, rng=np.random.default_rng(seed), count=n
    )
    rng = np.random.default_rng(seed + 1)
    items = []
    for i, (t, x, y) in enumerate(zip(events.t, events.x, events.y)):
        if value == "bool":
            v = bool(rng.random() < 0.5)
        else:
            v = float(rng.normal(20.0, 1.0))
        items.append(
            SensorTuple(
                tuple_id=i, attribute="rain", t=float(t), x=float(x), y=float(y),
                value=v, sensor_id=i % 17,
            )
        )
    return items


def run_object_path(operator, items, outputs=1):
    sinks = [CollectingSink().attach(operator.outputs[i]) for i in range(outputs)]
    for item in items:
        operator.accept(item)
    operator.flush()
    return [list(sink.items) for sink in sinks]


def ids(items_or_batch):
    if isinstance(items_or_batch, TupleBatch):
        return [int(i) for i in items_or_batch.tuple_id]
    return [item.tuple_id for item in items_or_batch]


class TestKeepMaskOperators:
    def test_thin_equivalence(self):
        items = make_items()
        obj = ThinOperator(100.0, 25.0, rng=np.random.default_rng(5))
        col = ThinOperator(100.0, 25.0, rng=np.random.default_rng(5))
        (object_out,) = run_object_path(obj, items)
        batch_out = col.process_batch(TupleBatch.from_tuples(items))
        assert ids(object_out) == ids(batch_out)
        assert obj.dropped == col.dropped
        assert (obj.tuples_in, obj.tuples_out) == (col.tuples_in, col.tuples_out)

    def test_flatten_equivalence(self):
        items = make_items()
        make = lambda seed: FlattenOperator(
            500.0, region=CELL, intensity=ConstantIntensity(2000.0),
            rng=np.random.default_rng(seed),
        )
        obj, col = make(9), make(9)
        (object_out,) = run_object_path(obj, items)
        batch_out = col.process_batch(TupleBatch.from_tuples(items))
        assert ids(object_out) == ids(batch_out)
        assert obj.last_violation_percent == col.last_violation_percent
        assert [r.__dict__ for r in obj.reports] == [r.__dict__ for r in col.reports]

    def test_flatten_estimated_intensity_equivalence(self):
        # No known intensity: both paths must fit the same MLE model.
        items = make_items(800)
        make = lambda: FlattenOperator(200.0, region=CELL, rng=np.random.default_rng(3))
        obj, col = make(), make()
        (object_out,) = run_object_path(obj, items)
        batch_out = col.process_batch(TupleBatch.from_tuples(items))
        assert ids(object_out) == ids(batch_out)

    def test_flatten_empty_batch_reports_shortfall(self):
        operator = FlattenOperator(10.0, region=CELL, rng=np.random.default_rng(0))
        out = operator.process_batch(TupleBatch.empty("rain"))
        assert out.is_empty
        assert operator.last_violation_percent == 100.0

    def test_sample_equivalence(self):
        items = make_items()
        obj = SampleOperator(0.3, rng=np.random.default_rng(21))
        col = SampleOperator(0.3, rng=np.random.default_rng(21))
        (object_out,) = run_object_path(obj, items)
        batch_out = col.process_batch(TupleBatch.from_tuples(items))
        assert ids(object_out) == ids(batch_out)
        assert obj.dropped == col.dropped


class TestRoutingOperators:
    def test_partition_multi_equivalence(self):
        items = make_items()
        halves = [RectRegion(r) for r in CELL.subdivide(2, 1)]
        obj = PartitionOperator(halves, rng=np.random.default_rng(1))
        col = PartitionOperator(halves, rng=np.random.default_rng(1))
        object_outs = run_object_path(obj, items, outputs=2)
        batch_outs = col.process_batch_multi(TupleBatch.from_tuples(items))
        for object_out, batch_out in zip(object_outs, batch_outs):
            assert ids(object_out) == ids(batch_out)
        assert obj.dropped == col.dropped

    def test_partition_drops_unmatched_without_rest(self):
        items = make_items()
        left = RectRegion.from_bounds(0.0, 0.0, 0.25, 1.0)
        col = PartitionOperator([left], rng=np.random.default_rng(1))
        outs = col.process_batch_multi(TupleBatch.from_tuples(items))
        assert len(outs) == 1
        assert col.dropped == len(items) - len(outs[0])

    def test_partition_keep_rest(self):
        items = make_items()
        left = RectRegion.from_bounds(0.0, 0.0, 0.25, 1.0)
        col = PartitionOperator([left], keep_rest=True, rng=np.random.default_rng(1))
        outs = col.process_batch_multi(TupleBatch.from_tuples(items))
        assert len(outs) == 2
        assert len(outs[0]) + len(outs[1]) == len(items)
        assert col.dropped == 0

    def test_partition_process_batch_pushes_side_outputs(self):
        # The single-output contract must not lose tuples landing in the
        # non-primary splits: they flow to their output streams.
        items = make_items(200)
        halves = [RectRegion(r) for r in CELL.subdivide(2, 1)]
        operator = PartitionOperator(halves, rng=np.random.default_rng(1))
        side = CollectingSink().attach(operator.output_for(1))
        primary = operator.process_batch(TupleBatch.from_tuples(items))
        assert len(primary) + len(side.items) == len(items)
        assert len(side.items) > 0

    def test_union_passes_batch_through(self):
        batch = TupleBatch.from_tuples(make_items(50))
        union = UnionOperator()
        out = union.process_batch(batch)
        assert out is batch
        assert union.tuples_in == 50
        assert union.tuples_out == 50

    def test_shift_equivalence(self):
        items = make_items(100)
        obj = ShiftOperator(dt=1.0, dx=0.1, dy=-0.1)
        col = ShiftOperator(dt=1.0, dx=0.1, dy=-0.1)
        (object_out,) = run_object_path(obj, items)
        batch_out = col.process_batch(TupleBatch.from_tuples(items)).to_tuples()
        assert object_out == batch_out

    def test_mark_equivalence(self):
        items = make_items(100)
        obj = MarkOperator(lambda r: int(r.integers(0, 10)), rng=np.random.default_rng(2))
        col = MarkOperator(lambda r: int(r.integers(0, 10)), rng=np.random.default_rng(2))
        (object_out,) = run_object_path(obj, items)
        batch_out = col.process_batch(TupleBatch.from_tuples(items)).to_tuples()
        assert [it.metadata["mark"] for it in object_out] == [
            it.metadata["mark"] for it in batch_out
        ]


class TestCleaningOperators:
    def test_clamp_equivalence(self):
        rng = np.random.default_rng(11)
        items = [
            SensorTuple(
                tuple_id=i, attribute="rain",
                t=float(i), x=float(rng.uniform(-0.5, 1.5)), y=float(rng.uniform(-0.5, 1.5)),
                value=True, sensor_id=i,
            )
            for i in range(500)
        ]
        obj, col = ClampOperator(CELL), ClampOperator(CELL)
        (object_out,) = run_object_path(obj, items)
        batch_out = col.process_batch(TupleBatch.from_tuples(items)).to_tuples()
        assert [(it.x, it.y) for it in object_out] == [(it.x, it.y) for it in batch_out]
        assert obj.clamped == col.clamped

    def test_outlier_filter_equivalence(self):
        rng = np.random.default_rng(17)
        items = []
        for i in range(500):
            value = float(rng.normal(20.0, 0.5))
            if i % 50 == 25:
                value += 100.0  # gross outlier
            items.append(
                SensorTuple(tuple_id=i, attribute="temp", t=float(i), x=0.5, y=0.5,
                            value=value, sensor_id=i)
            )
        obj = OutlierFilterOperator(window=50, z_threshold=4.0)
        col = OutlierFilterOperator(window=50, z_threshold=4.0)
        (object_out,) = run_object_path(obj, items)
        batch_out = col.process_batch(TupleBatch.from_tuples(items))
        assert ids(object_out) == ids(batch_out)
        assert obj.dropped == col.dropped
        assert obj.dropped > 0
