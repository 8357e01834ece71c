"""Unit tests for the PMAT operators (Flatten, Thin, Partition, Union, extensions)."""

import numpy as np
import pytest

from repro.core.pmat import (
    FlattenOperator,
    MarkOperator,
    PartitionOperator,
    SampleOperator,
    ShiftOperator,
    ThinOperator,
    UnionOperator,
)
from repro.errors import PointProcessError, StreamError
from repro.geometry import Rectangle, RectRegion
from repro.pointprocess import (
    ConstantIntensity,
    HomogeneousMDPP,
    InhomogeneousMDPP,
    LinearIntensity,
    quadrat_chi_square_test,
)
from repro.streams import CollectingSink, SensorTuple, TupleBatch

CELL = Rectangle(0.0, 0.0, 1.0, 1.0)


def tuples_from_batch(batch, attribute="rain"):
    return [
        SensorTuple(tuple_id=i, attribute=attribute, t=float(t), x=float(x), y=float(y))
        for i, (t, x, y) in enumerate(zip(batch.t, batch.x, batch.y))
    ]


def simulate_tuples(rate=200.0, duration=1.0, seed=0, intensity=None):
    rng = np.random.default_rng(seed)
    if intensity is None:
        batch = HomogeneousMDPP(rate, CELL).sample(duration, rng=rng)
    else:
        batch = InhomogeneousMDPP(intensity, CELL).sample(duration, rng=rng)
    return tuples_from_batch(batch)


class TestFlattenOperator:
    def test_validation(self):
        with pytest.raises(StreamError):
            FlattenOperator(0.0, region=CELL)
        with pytest.raises(StreamError):
            FlattenOperator(1.0, region=CELL, batch_duration=0.0)
        with pytest.raises(StreamError):
            FlattenOperator(1.0, region=CELL, min_batch_for_fit=2)
        with pytest.raises(StreamError):
            FlattenOperator(1.0, region=CELL, history_batches=0)

    def test_buffers_until_flush(self):
        op = FlattenOperator(10.0, region=CELL, rng=np.random.default_rng(0))
        sink = CollectingSink().attach(op.output)
        for item in simulate_tuples(rate=100.0):
            op.accept(item)
        assert len(sink) == 0
        assert op.pending > 0
        op.flush()
        assert op.pending == 0
        assert len(sink) > 0

    def test_output_rate_near_target(self):
        target = 40.0
        op = FlattenOperator(
            target, region=CELL, intensity=ConstantIntensity(400.0),
            rng=np.random.default_rng(1),
        )
        sink = CollectingSink().attach(op.output)
        for item in simulate_tuples(rate=400.0, seed=2):
            op.accept(item)
        op.flush()
        achieved = len(sink) / (CELL.area * 1.0)
        assert achieved == pytest.approx(target, rel=0.3)
        assert op.last_violation_percent == 0.0

    def test_flattens_inhomogeneous_input(self):
        intensity = LinearIntensity(20.0, 0.0, 300.0, 0.0)
        op = FlattenOperator(
            60.0, region=CELL, intensity=intensity, rng=np.random.default_rng(3)
        )
        sink = CollectingSink().attach(op.output)
        for item in simulate_tuples(seed=4, intensity=intensity, duration=1.0):
            op.accept(item)
        op.flush()
        out_batch = sink.to_event_batch()
        result = quadrat_chi_square_test(out_batch, CELL, 3, 3)
        assert not result.rejects_homogeneity(alpha=0.001)

    def test_reports_violations_when_target_unreachable(self):
        op = FlattenOperator(
            500.0, region=CELL, intensity=ConstantIntensity(20.0),
            rng=np.random.default_rng(5),
        )
        for item in simulate_tuples(rate=20.0, seed=6):
            op.accept(item)
        op.flush()
        assert op.last_violation_percent > 50.0

    def test_estimates_intensity_when_not_given(self):
        intensity = LinearIntensity(10.0, 0.0, 200.0, 0.0)
        op = FlattenOperator(40.0, region=CELL, rng=np.random.default_rng(7))
        sink = CollectingSink().attach(op.output)
        for item in simulate_tuples(seed=8, intensity=intensity):
            op.accept(item)
        op.flush()
        assert len(sink) > 0
        report = op.reports[-1]
        assert report.batch_size > 0
        assert report.retained == len(sink)

    def test_empty_batch_reports_full_shortfall(self):
        op = FlattenOperator(10.0, region=CELL)
        op.flush()
        report = op.reports[-1]
        assert report.batch_size == 0
        assert report.violation_percent == 0.0
        assert report.shortfall_percent == 100.0
        assert op.last_violation_percent == 100.0

    def test_history_batches_keeps_the_newest_reports(self):
        op = FlattenOperator(10.0, region=CELL, history_batches=2)
        for size in (0, 3, 5):
            op.record_batch(size, retained=size)
        assert [report.batch_size for report in op.reports] == [3, 5]
        assert op.last_violation_percent == op.reports[-1].feedback_percent

    def test_emit_discarded_routes_dropped_tuples(self):
        op = FlattenOperator(
            10.0, region=CELL, intensity=ConstantIntensity(300.0),
            emit_discarded=True, rng=np.random.default_rng(9),
        )
        kept = CollectingSink().attach(op.output)
        dropped = CollectingSink().attach(op.discarded_output)
        items = simulate_tuples(rate=300.0, seed=10)
        for item in items:
            op.accept(item)
        op.flush()
        assert len(kept) + len(dropped) == len(items)
        assert len(dropped) > len(kept)

    def test_discarded_output_requires_flag(self):
        op = FlattenOperator(10.0, region=CELL)
        with pytest.raises(StreamError):
            _ = op.discarded_output

    def test_the_fit_runs_over_the_opened_window(self):
        # Events of the window [5, 6): without an opened window the fit
        # starts at the first event, 0.2 late, and so runs 0.2 past the
        # events' end; the opened window is the one they were acquired over.
        batch = HomogeneousMDPP(200.0, CELL).sample(0.7, t_start=5.2, rng=np.random.default_rng(4))
        op = FlattenOperator(10.0, region=CELL)
        pending = op.begin_estimate(batch)
        assert (pending.t_start, pending.duration) == (batch.t.min(), 1.0)
        op.open_window(5.0)
        pending = op.begin_estimate(batch)
        assert (pending.t_start, pending.duration) == (5.0, 1.0)
        # A tuple past the window's end (clock skew) stretches it.
        late = HomogeneousMDPP(200.0, CELL).sample(1.5, t_start=5.0, rng=np.random.default_rng(5))
        assert op.begin_estimate(late).t_end == late.t.max()

    def test_set_target_rate(self):
        op = FlattenOperator(10.0, region=CELL)
        op.set_target_rate(25.0)
        assert op.target_rate == 25.0
        with pytest.raises(StreamError):
            op.set_target_rate(0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_given_intensity_raises(self, bad):
        # NaN passed the old ``rate <= 0`` check and an infinite rate made
        # lambda_c infinite: the batch delivered nothing and reported 0%
        # violation and 0% shortfall, a healthy cell to the budget tuner.
        items = simulate_tuples(rate=50.0, seed=30)
        columnar = FlattenOperator(
            10.0, region=CELL, intensity=LinearIntensity(bad, 0.0, 0.0, 0.0)
        )
        with pytest.raises(PointProcessError, match="finite"):
            columnar.process_batch_mask(TupleBatch.from_tuples(items))
        walked = FlattenOperator(
            10.0, region=CELL, intensity=LinearIntensity(bad, 0.0, 0.0, 0.0)
        )
        for item in items:
            walked.accept(item)
        with pytest.raises(PointProcessError, match="finite"):
            walked.flush()

    def test_non_finite_online_theta_falls_back(self):
        op = FlattenOperator(
            10.0, region=CELL, online=True, rng=np.random.default_rng(12)
        )
        op.process_batch_mask(TupleBatch.from_tuples(simulate_tuples(rate=150.0, seed=31)))
        assert op.reports[-1].estimator == "online"
        # A diverged estimate (the SGD recurrence keeps a NaN once it has one).
        op._online_estimator._theta = np.array([np.nan, 0.0, 0.0, 0.0])
        op.process_batch_mask(TupleBatch.from_tuples(simulate_tuples(rate=150.0, seed=32)))
        report = op.reports[-1]
        assert report.estimator in ("mle", "constant")
        assert report.retained > 0
        assert np.isnan(op._online_estimator.theta[0])

    def test_online_mode_accumulates_estimator_updates(self):
        op = FlattenOperator(
            20.0, region=CELL, online=True, rng=np.random.default_rng(11)
        )
        for batch_seed in range(3):
            for item in simulate_tuples(rate=150.0, seed=20 + batch_seed):
                op.accept(item)
            op.flush()
        assert len(op.reports) == 3


class TestThinOperator:
    def test_rate_validation(self):
        with pytest.raises(StreamError):
            ThinOperator(0.0, 1.0)
        with pytest.raises(StreamError):
            ThinOperator(10.0, 10.0)
        with pytest.raises(StreamError):
            ThinOperator(10.0, 12.0)
        with pytest.raises(StreamError):
            ThinOperator(10.0, 0.0)

    def test_retention_probability(self):
        assert ThinOperator(10.0, 4.0).retention_probability == pytest.approx(0.4)

    def test_output_rate(self):
        op = ThinOperator(200.0, 50.0, rng=np.random.default_rng(0))
        sink = CollectingSink().attach(op.output)
        items = simulate_tuples(rate=200.0, seed=1)
        for item in items:
            op.accept(item)
        achieved = len(sink) / (CELL.area * 1.0)
        assert achieved == pytest.approx(50.0, rel=0.3)
        assert op.dropped == len(items) - len(sink)

    def test_set_rates_for_merging(self):
        op = ThinOperator(10.0, 5.0)
        op.set_rates(20.0, 2.0)
        assert op.rate_in == 20.0
        assert op.rate_out == 2.0
        assert op.retention_probability == pytest.approx(0.1)

    def test_emit_discarded(self):
        op = ThinOperator(100.0, 20.0, emit_discarded=True, rng=np.random.default_rng(2))
        kept = CollectingSink().attach(op.output)
        dropped = CollectingSink().attach(op.discarded_output)
        items = simulate_tuples(rate=100.0, seed=3)
        for item in items:
            op.accept(item)
        assert len(kept) + len(dropped) == len(items)

    def test_discarded_output_requires_flag(self):
        with pytest.raises(StreamError):
            _ = ThinOperator(10.0, 5.0).discarded_output

    def test_describe_mentions_rates(self):
        text = ThinOperator(10.0, 5.0, attribute="rain").describe()
        assert "10" in text and "5" in text and "rain" in text


class TestPartitionOperator:
    def test_requires_regions(self):
        with pytest.raises(StreamError):
            PartitionOperator([])

    def test_rejects_overlapping_regions(self):
        with pytest.raises(StreamError):
            PartitionOperator([Rectangle(0, 0, 1, 1), Rectangle(0.5, 0, 1.5, 1)])

    def test_routes_by_region(self):
        left = Rectangle(0, 0, 0.5, 1)
        right = Rectangle(0.5, 0, 1, 1)
        op = PartitionOperator([left, right])
        left_sink = CollectingSink().attach(op.output_for(0))
        right_sink = CollectingSink().attach(op.output_for(1))
        items = simulate_tuples(rate=300.0, seed=4)
        for item in items:
            op.accept(item)
        assert len(left_sink) + len(right_sink) == len(items)
        assert all(item.x < 0.5 for item in left_sink.items)
        assert all(item.x >= 0.5 for item in right_sink.items)

    def test_rate_preserved_on_partitions(self):
        left = Rectangle(0, 0, 0.5, 1)
        right = Rectangle(0.5, 0, 1, 1)
        op = PartitionOperator([left, right])
        left_sink = CollectingSink().attach(op.output_for(0))
        right_sink = CollectingSink().attach(op.output_for(1))
        for item in simulate_tuples(rate=400.0, seed=5):
            op.accept(item)
        left_rate = len(left_sink) / (left.area * 1.0)
        right_rate = len(right_sink) / (right.area * 1.0)
        assert left_rate == pytest.approx(400.0, rel=0.25)
        assert right_rate == pytest.approx(400.0, rel=0.25)

    def test_unmatched_tuples_dropped_by_default(self):
        op = PartitionOperator([Rectangle(0, 0, 0.25, 0.25)])
        sink = CollectingSink().attach(op.output_for(0))
        items = simulate_tuples(rate=200.0, seed=6)
        for item in items:
            op.accept(item)
        assert op.dropped == len(items) - len(sink)

    def test_keep_rest_output(self):
        op = PartitionOperator([Rectangle(0, 0, 0.25, 0.25)], keep_rest=True)
        inside = CollectingSink().attach(op.output_for(0))
        rest = CollectingSink().attach(op.rest_output)
        items = simulate_tuples(rate=200.0, seed=7)
        for item in items:
            op.accept(item)
        assert len(inside) + len(rest) == len(items)
        assert op.dropped == 0

    def test_rest_output_requires_flag(self):
        with pytest.raises(StreamError):
            _ = PartitionOperator([Rectangle(0, 0, 1, 1)]).rest_output

    def test_output_for_bad_index(self):
        with pytest.raises(StreamError):
            PartitionOperator([Rectangle(0, 0, 1, 1)]).output_for(2)


class TestUnionOperator:
    def test_merges_input_streams(self):
        left_region = Rectangle(0, 0, 1, 1)
        right_region = Rectangle(1, 0, 2, 1)
        op = UnionOperator([left_region, right_region], rate=50.0)
        sink = CollectingSink().attach(op.output)
        left_items = tuples_from_batch(
            HomogeneousMDPP(50.0, left_region).sample(1.0, rng=np.random.default_rng(8))
        )
        right_items = tuples_from_batch(
            HomogeneousMDPP(50.0, right_region).sample(1.0, rng=np.random.default_rng(9))
        )
        for item in left_items + right_items:
            op.accept(item)
        assert len(sink) == len(left_items) + len(right_items)
        assert op.region.area == pytest.approx(2.0)

    def test_rate_preserved_after_union(self):
        left_region = Rectangle(0, 0, 1, 1)
        right_region = Rectangle(1, 0, 2, 1)
        op = UnionOperator([left_region, right_region], rate=80.0)
        sink = CollectingSink().attach(op.output)
        rng = np.random.default_rng(10)
        for region in (left_region, right_region):
            for item in tuples_from_batch(HomogeneousMDPP(80.0, region).sample(1.0, rng=rng)):
                op.accept(item)
        achieved = len(sink) / (op.region.area * 1.0)
        assert achieved == pytest.approx(80.0, rel=0.25)

    def test_rejects_overlapping_regions(self):
        with pytest.raises(Exception):
            UnionOperator([Rectangle(0, 0, 1, 1), Rectangle(0.5, 0, 1.5, 1)])

    def test_rejects_bad_rate(self):
        with pytest.raises(StreamError):
            UnionOperator(rate=0.0)

    def test_rejects_empty_region_list(self):
        with pytest.raises(StreamError):
            UnionOperator([])

    def test_attach_input_counts(self):
        op = UnionOperator()
        upstream = SampleOperator(1.0)
        op.attach_input(upstream.output)
        assert op.inputs_attached == 1
        sink = CollectingSink().attach(op.output)
        upstream.accept(SensorTuple(1, "rain", 0.0, 0.1, 0.1))
        assert len(sink) == 1


class TestExtensionOperators:


    def test_shift_displaces_tuples(self):
        op = ShiftOperator(dt=1.0, dx=0.5, dy=-0.5)
        sink = CollectingSink().attach(op.output)
        op.accept(SensorTuple(1, "rain", 1.0, 1.0, 1.0))
        shifted = sink.items[0]
        assert (shifted.t, shifted.x, shifted.y) == (2.0, 1.5, 0.5)
        assert op.displacement == (1.0, 0.5, -0.5)

    def test_mark_attaches_metadata(self):
        op = MarkOperator(lambda rng: 7, mark_key="priority")
        sink = CollectingSink().attach(op.output)
        op.accept(SensorTuple(1, "rain", 0.0, 0.1, 0.1))
        assert sink.items[0].metadata["priority"] == 7

    def test_mark_requires_key(self):
        with pytest.raises(StreamError):
            MarkOperator(lambda rng: 1, mark_key="")

    def test_sample_probability_validation(self):
        with pytest.raises(StreamError):
            SampleOperator(0.0)
        with pytest.raises(StreamError):
            SampleOperator(1.5)

    def test_sample_keeps_expected_fraction(self):
        op = SampleOperator(0.25, rng=np.random.default_rng(11))
        sink = CollectingSink().attach(op.output)
        items = simulate_tuples(rate=2000.0, seed=12)
        for item in items:
            op.accept(item)
        fraction = len(sink) / len(items)
        assert fraction == pytest.approx(0.25, abs=0.05)
        assert op.dropped == len(items) - len(sink)

    def test_sample_at_probability_one_keeps_everything(self):
        op = SampleOperator(1.0, rng=np.random.default_rng(13))
        sink = CollectingSink().attach(op.output)
        items = simulate_tuples(rate=300.0, seed=14)
        for item in items:
            op.accept(item)
        assert [it.tuple_id for it in sink.items] == [it.tuple_id for it in items]
        assert op.dropped == 0
        assert op.probability == 1.0

    def test_shift_keeps_everything_but_the_coordinates(self):
        op = ShiftOperator(dt=0.5, dx=0.25)
        sink = CollectingSink().attach(op.output)
        op.accept(SensorTuple(7, "temp", 1.0, 0.5, 0.5, value=21.0, sensor_id=3))
        shifted = sink.items[0]
        assert (shifted.tuple_id, shifted.attribute, shifted.value, shifted.sensor_id) == (
            7, "temp", 21.0, 3,
        )
        assert (shifted.t, shifted.x, shifted.y) == (1.5, 0.75, 0.5)

    def test_shift_batch_matches_the_per_tuple_path(self):
        items = simulate_tuples(rate=100.0, seed=15)
        op = ShiftOperator(dt=-0.5, dx=2.0, dy=1.0)
        sink = CollectingSink().attach(op.output)
        for item in items:
            op.accept(item)
        batch = ShiftOperator(dt=-0.5, dx=2.0, dy=1.0).process_batch(
            TupleBatch.from_tuples(items)
        )
        assert [(it.t, it.x, it.y) for it in batch.to_tuples()] == [
            (it.t, it.x, it.y) for it in sink.items
        ]

    def test_mark_keeps_the_metadata_it_does_not_set(self):
        op = MarkOperator(lambda rng: 1)
        sink = CollectingSink().attach(op.output)
        op.accept(SensorTuple(1, "rain", 0.0, 0.1, 0.1, metadata={"source": "app"}))
        assert sink.items[0].metadata == {"source": "app", "mark": 1}
        assert op.mark_key == "mark"

    def test_marks_are_drawn_from_the_operator_generator(self):
        op = MarkOperator(lambda rng: float(rng.random()), rng=np.random.default_rng(16))
        sink = CollectingSink().attach(op.output)
        for i in range(5):
            op.accept(SensorTuple(i, "rain", 0.0, 0.1, 0.1))
        expected = np.random.default_rng(16).random(5).tolist()
        assert [it.metadata["mark"] for it in sink.items] == expected

    @pytest.mark.parametrize(
        "op",
        [
            lambda: ShiftOperator(dt=1.0),
            lambda: MarkOperator(lambda rng: 0),
            lambda: SampleOperator(0.5, rng=np.random.default_rng(0)),
        ],
        ids=["shift", "mark", "sample"],
    )
    def test_an_empty_batch_is_passed_on(self, op):
        batch = TupleBatch.from_tuples([])
        assert op().process_batch(batch) is batch
