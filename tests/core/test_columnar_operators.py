"""Seeded equivalence of the per-tuple ``process`` / ``flush`` walk with
column references.

For the same seed, Flatten's one-batch keep-mask, Thin's survivor indices
and Partition's primary containment mask (the kernels the compiled programs
call) retain exactly the tuples the walk retains, with the same counters and
reports.  The operators without a kernel (Sample, Shift, Mark, Clamp,
OutlierFilter, multi-region Partition, Union) are checked against the numpy
computation over the same rows that their ``process`` must agree with.
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
from repro.errors import StreamError
from repro.geometry import Rectangle, RectRegion
from repro.pointprocess import ConstantIntensity, HomogeneousMDPP
from repro.streams import CollectingSink, SensorTuple, TupleBatch
from scaffolding import batch_of

CELL = Rectangle(0.0, 0.0, 1.0, 1.0)


def make_items(n=2000, seed=77):
    events = HomogeneousMDPP(float(n), CELL).sample(
        1.0, rng=np.random.default_rng(seed), count=n
    )
    rng = np.random.default_rng(seed + 1)
    items = []
    for i, (t, x, y) in enumerate(zip(events.t, events.x, events.y)):
        items.append(
            SensorTuple(
                tuple_id=i, attribute="rain", t=float(t), x=float(x), y=float(y),
                value=bool(rng.random() < 0.5), sensor_id=i % 17,
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
        kept = col.thin_indices(np.arange(len(items)))
        assert ids(object_out) == ids(batch_of(items).select(kept))
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
        batch = batch_of(items)
        batch_out = batch.select(col.process_batch_mask(batch))
        assert ids(object_out) == ids(batch_out)
        assert obj.last_violation_percent == col.last_violation_percent
        assert [r.__dict__ for r in obj.reports] == [r.__dict__ for r in col.reports]

    def test_flatten_estimated_intensity_equivalence(self):
        # No known intensity: both paths must fit the same MLE model.
        items = make_items(800)
        make = lambda: FlattenOperator(200.0, region=CELL, rng=np.random.default_rng(3))
        obj, col = make(), make()
        (object_out,) = run_object_path(obj, items)
        batch = batch_of(items)
        batch_out = batch.select(col.process_batch_mask(batch))
        assert ids(object_out) == ids(batch_out)

    def test_flatten_empty_batch_reports_shortfall(self):
        operator = FlattenOperator(10.0, region=CELL, rng=np.random.default_rng(0))
        mask = operator.process_batch_mask(TupleBatch.empty("rain"))
        assert mask.shape == (0,)
        assert operator.last_violation_percent == 100.0

    def test_sample_equivalence(self):
        # One uniform draw per tuple, in arrival order: the walk keeps the
        # rows a vector of the same draws keeps.
        items = make_items()
        operator = SampleOperator(0.3, rng=np.random.default_rng(21))
        (object_out,) = run_object_path(operator, items)
        keep = np.random.default_rng(21).random(len(items)) < 0.3
        assert ids(object_out) == ids(batch_of(items).select(keep))
        assert operator.dropped == len(items) - int(np.count_nonzero(keep))


class TestRoutingOperators:
    def test_partition_drops_unmatched_without_rest(self):
        items = make_items()
        left = RectRegion(Rectangle(0.0, 0.0, 0.25, 1.0))
        obj = PartitionOperator([left], rng=np.random.default_rng(1))
        col = PartitionOperator([left], rng=np.random.default_rng(1))
        (object_out,) = run_object_path(obj, items)
        batch = batch_of(items)
        mask = col.primary_mask(batch.x, batch.y)
        col.account_mask(len(batch), int(np.count_nonzero(mask)))
        assert ids(object_out) == ids(batch.select(mask))
        assert col.dropped == obj.dropped == len(items) - len(object_out)
        assert (obj.tuples_in, obj.tuples_out) == (col.tuples_in, col.tuples_out)

    def test_partition_multi_equivalence(self):
        items = make_items()
        halves = [RectRegion(r) for r in CELL.subdivide(2, 1)]
        operator = PartitionOperator(halves, rng=np.random.default_rng(1))
        object_outs = run_object_path(operator, items, outputs=2)
        batch = batch_of(items)
        for half, object_out in zip(halves, object_outs):
            assert ids(object_out) == ids(batch.select(half.contains_many(batch.x, batch.y)))
        # Every tuple lands in exactly one half, so the side output is fed.
        assert all(object_outs)
        assert operator.dropped == len(items) - sum(map(len, object_outs))

    def test_partition_keep_rest(self):
        items = make_items()
        left = RectRegion(Rectangle(0.0, 0.0, 0.25, 1.0))
        operator = PartitionOperator([left], keep_rest=True, rng=np.random.default_rng(1))
        inside, rest = run_object_path(operator, items, outputs=2)
        batch = batch_of(items)
        mask = left.contains_many(batch.x, batch.y)
        assert ids(inside) == ids(batch.select(mask))
        assert ids(rest) == ids(batch.select(~mask))
        assert operator.dropped == 0
        assert operator.tuples_out == len(items)

    def test_primary_mask_serves_single_region_drop_rest_taps_only(self):
        halves = [RectRegion(r) for r in CELL.subdivide(2, 1)]
        xs = ys = np.array([0.25])
        with pytest.raises(StreamError, match="single-region"):
            PartitionOperator(halves).primary_mask(xs, ys)
        with pytest.raises(StreamError, match="single-region"):
            PartitionOperator(halves[:1], keep_rest=True).primary_mask(xs, ys)

    def test_union_account_batch_counts_as_the_walk(self):
        # The planner counts a query's delivered batch with account_batch
        # instead of walking it through the Union.
        items = make_items(50)
        walked, accounted = UnionOperator(), UnionOperator()
        (object_out,) = run_object_path(walked, items)
        accounted.account_batch(len(items), len(items))
        assert all(out is item for out, item in zip(object_out, items))
        assert len(object_out) == len(items)
        assert (walked.tuples_in, walked.tuples_out) == (
            accounted.tuples_in, accounted.tuples_out,
        ) == (50, 50)

    def test_shift_equivalence(self):
        items = make_items(100)
        (object_out,) = run_object_path(ShiftOperator(dt=1.0, dx=0.1, dy=-0.1), items)
        batch = batch_of(items)
        assert [(it.t, it.x, it.y) for it in object_out] == list(
            zip((batch.t + 1.0).tolist(), (batch.x + 0.1).tolist(), (batch.y - 0.1).tolist())
        )
        assert [(it.tuple_id, it.value, it.sensor_id) for it in object_out] == [
            (it.tuple_id, it.value, it.sensor_id) for it in items
        ]

    def test_mark_equivalence(self):
        # Marks come from the operator's generator alone (the marking
        # theorem needs them independent of the tuples): two different
        # streams of one length get the same marks.
        draw = lambda r: int(r.integers(0, 10))
        items = make_items(100)
        shuffled = [items[i] for i in np.random.default_rng(4).permutation(100)]
        outs = [
            run_object_path(MarkOperator(draw, rng=np.random.default_rng(2)), stream)[0]
            for stream in (items, shuffled)
        ]
        expected = np.random.default_rng(2).integers(0, 10, size=100).tolist()
        for out, stream in zip(outs, (items, shuffled)):
            assert [it.metadata["mark"] for it in out] == expected
            assert out == stream


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
        operator = ClampOperator(CELL)
        (object_out,) = run_object_path(operator, items)
        batch = batch_of(items)
        xs, ys = np.clip(batch.x, 0.0, 1.0), np.clip(batch.y, 0.0, 1.0)
        assert [(it.x, it.y) for it in object_out] == list(zip(xs.tolist(), ys.tolist()))
        assert ids(object_out) == ids(items)
        assert operator.clamped == int(np.count_nonzero((xs != batch.x) | (ys != batch.y)))
        assert 0 < operator.clamped < len(items)

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
        operator = OutlierFilterOperator(window=50, z_threshold=4.0, min_history=10)
        (object_out,) = run_object_path(operator, items)
        # Reference: the robust z-score of each reading against the last 50
        # admitted ones (median and MAD), once 10 have been admitted.
        admitted, keep = [], []
        for value in batch_of(items).value:
            history = np.asarray(admitted[-50:])
            if len(history) >= 10:
                median = np.median(history)
                mad = np.median(np.abs(history - median))
                if 0.6745 * abs(value - median) / mad > 4.0:
                    keep.append(False)
                    continue
            admitted.append(value)
            keep.append(True)
        assert ids(object_out) == ids(batch_of(items).select(np.asarray(keep)))
        assert operator.dropped == keep.count(False)
        assert set(range(25, 500, 50)).isdisjoint(ids(object_out))
