"""Unit tests for error models and error-mitigation operators (Section VI)."""

import numpy as np
import pytest

from repro.core.pmat import ClampOperator, OutlierFilterOperator
from repro.errors import CraqrError, StreamError
from repro.geometry import Rectangle
from repro.sensing import ErrorInjector, GpsNoiseModel, ValueErrorModel
from repro.streams import CollectingSink, SensorTuple, TupleBatch

REGION = Rectangle(0, 0, 4, 4)


def make_tuple(i=0, t=0.0, x=1.0, y=1.0, value=20.0, sensor_id=1, attribute="temp"):
    return SensorTuple(
        tuple_id=i, attribute=attribute, t=t, x=x, y=y, value=value, sensor_id=sensor_id
    )


class TestGpsNoiseModel:
    def test_zero_sigma_is_identity(self):
        model = GpsNoiseModel(0.0)
        assert model.perturb(1.0, 2.0, np.random.default_rng(0)) == (1.0, 2.0)

    def test_noise_changes_position(self):
        model = GpsNoiseModel(0.5)
        x, y = model.perturb(1.0, 2.0, np.random.default_rng(1))
        assert (x, y) != (1.0, 2.0)

    def test_clamped_to_region(self):
        model = GpsNoiseModel(5.0, region=REGION)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = model.perturb(0.1, 0.1, rng)
            assert REGION.contains(x, y, closed=True)

    def test_negative_sigma_rejected(self):
        with pytest.raises(CraqrError):
            GpsNoiseModel(-1.0)


class TestValueErrorModel:
    def test_numeric_noise(self):
        model = ValueErrorModel(noise_std=1.0)
        rng = np.random.default_rng(3)
        values = {model.corrupt(20.0, rng) for _ in range(5)}
        assert len(values) > 1

    def test_outliers_injected(self):
        model = ValueErrorModel(outlier_probability=1.0, outlier_scale=100.0)
        corrupted = model.corrupt(20.0, np.random.default_rng(4))
        assert abs(corrupted - 20.0) == pytest.approx(100.0)

    def test_boolean_flip(self):
        model = ValueErrorModel(flip_probability=1.0)
        assert model.corrupt(True, np.random.default_rng(5)) is False

    def test_none_passes_through(self):
        model = ValueErrorModel(noise_std=1.0)
        assert model.corrupt(None, np.random.default_rng(6)) is None

    def test_validation(self):
        with pytest.raises(CraqrError):
            ValueErrorModel(noise_std=-1.0)
        with pytest.raises(CraqrError):
            ValueErrorModel(outlier_probability=2.0)
        with pytest.raises(CraqrError):
            ValueErrorModel(flip_probability=-0.1)


class TestErrorInjector:
    def test_corrupts_position_and_value_and_keeps_truth(self):
        injector = ErrorInjector(
            gps=GpsNoiseModel(0.2, region=REGION),
            value=ValueErrorModel(noise_std=0.5),
            rng=np.random.default_rng(7),
        )
        original = make_tuple()
        corrupted = injector.corrupt_tuple(original)
        assert corrupted.metadata["true_x"] == original.x
        assert corrupted.metadata["true_value"] == original.value
        assert injector.corrupted == 1

    def test_corrupt_many(self):
        injector = ErrorInjector(rng=np.random.default_rng(8))
        items = [make_tuple(i) for i in range(5)]
        assert len(injector.corrupt_many(items)) == 5


class TestClampOperator:
    def test_out_of_region_coordinates_clamped(self):
        op = ClampOperator(REGION)
        sink = CollectingSink().attach(op.output)
        op.accept(make_tuple(x=-1.0, y=9.0))
        assert op.clamped == 1
        item = sink.items[0]
        assert REGION.contains(item.x, item.y, closed=True)

    def test_in_region_untouched(self):
        op = ClampOperator(REGION)
        sink = CollectingSink().attach(op.output)
        op.accept(make_tuple(x=1.0, y=1.0))
        assert op.clamped == 0
        assert sink.items[0].x == 1.0

    def test_a_corner_outlier_is_clamped_on_both_axes_once(self):
        op = ClampOperator(REGION)
        sink = CollectingSink().attach(op.output)
        op.accept(make_tuple(x=7.0, y=-3.0, value=21.5))
        item = sink.items[0]
        assert (item.x, item.y) == (4.0, 0.0)
        assert (item.t, item.value, item.sensor_id) == (0.0, 21.5, 1)
        assert op.clamped == 1

    def test_an_in_region_batch_is_passed_on_uncopied(self):
        op = ClampOperator(REGION)
        batch = TupleBatch.from_tuples([make_tuple(i, x=0.5 * i) for i in range(5)])
        assert op.process_batch(batch) is batch
        assert op.clamped == 0

    def test_an_empty_batch_is_passed_on(self):
        op = ClampOperator(REGION)
        batch = TupleBatch.from_tuples([])
        assert op.process_batch(batch) is batch
        assert op.clamped == 0


class TestOutlierFilterOperator:
    def test_drops_gross_outlier(self):
        op = OutlierFilterOperator(window=20, z_threshold=3.0, min_history=5)
        sink = CollectingSink().attach(op.output)
        rng = np.random.default_rng(9)
        for i in range(20):
            op.accept(make_tuple(i, value=20.0 + float(rng.normal(0, 0.5))))
        op.accept(make_tuple(99, value=500.0))
        assert op.dropped == 1
        assert all(item.value < 100 for item in sink.items)

    def test_passes_normal_values(self):
        op = OutlierFilterOperator(window=10, z_threshold=4.0)
        sink = CollectingSink().attach(op.output)
        for i in range(10):
            op.accept(make_tuple(i, value=20.0 + 0.1 * i))
        assert op.dropped == 0
        assert len(sink) == 10

    def test_non_numeric_values_pass_through(self):
        op = OutlierFilterOperator()
        sink = CollectingSink().attach(op.output)
        op.accept(make_tuple(value=True, attribute="rain"))
        assert len(sink) == 1

    def test_warm_up_admits_everything(self):
        op = OutlierFilterOperator(window=20, min_history=5)
        sink = CollectingSink().attach(op.output)
        for i, value in enumerate([20.0, 20.1, 19.9, 1e6, 20.0]):
            op.accept(make_tuple(i, value=value))
        assert op.dropped == 0
        assert len(sink) == 5

    def test_a_constant_history_admits_any_value(self):
        # No spread (MAD 0), so no robust z-score to judge by.
        op = OutlierFilterOperator(window=10, min_history=3)
        sink = CollectingSink().attach(op.output)
        for i in range(6):
            op.accept(make_tuple(i, value=20.0))
        op.accept(make_tuple(6, value=1e6))
        assert op.dropped == 0
        assert len(sink) == 7

    def test_dropped_readings_do_not_enter_the_history(self):
        # A run of identical outliers stays an outlier run: the window
        # never fills up with them.
        op = OutlierFilterOperator(window=10, z_threshold=3.0, min_history=5)
        sink = CollectingSink().attach(op.output)
        for i in range(10):
            op.accept(make_tuple(i, value=20.0 + 0.1 * (i % 3)))
        for i in range(10, 40):
            op.accept(make_tuple(i, value=500.0))
        assert op.dropped == 30
        assert len(sink) == 10

    def test_numpy_scalars_are_judged_as_numbers(self):
        op = OutlierFilterOperator(window=20, z_threshold=3.0, min_history=5)
        for i in range(10):
            op.accept(make_tuple(i, value=np.float64(20.0 + 0.1 * (i % 3))))
        op.accept(make_tuple(10, value=np.float64(500.0)))
        assert op.dropped == 1

    def test_booleans_are_not_numbers(self):
        # As a number True would be 1.0, far below a history around 20.
        op = OutlierFilterOperator(window=20, z_threshold=3.0, min_history=5)
        sink = CollectingSink().attach(op.output)
        for i in range(10):
            op.accept(make_tuple(i, value=20.0 + 0.1 * (i % 3)))
        op.accept(make_tuple(10, value=True))
        op.accept(make_tuple(11, value=1.0))
        assert op.dropped == 1
        assert [item.tuple_id for item in sink.items][-1] == 10

    def test_validation(self):
        with pytest.raises(StreamError):
            OutlierFilterOperator(window=1)
        with pytest.raises(StreamError):
            OutlierFilterOperator(z_threshold=0.0)
        with pytest.raises(StreamError):
            OutlierFilterOperator(window=5, min_history=10)


class TestMitigationPipeline:
    def test_cleaning_chain_restores_query_accuracy(self):
        """End to end: corrupted readings -> cleaning operators -> usable stream."""
        rng = np.random.default_rng(11)
        injector = ErrorInjector(
            gps=GpsNoiseModel(0.3, region=REGION),
            value=ValueErrorModel(noise_std=0.3, outlier_probability=0.05, outlier_scale=80.0),
            rng=rng,
        )
        clean_truth = 20.0
        originals = [
            make_tuple(i, t=float(i) * 0.01, value=clean_truth, sensor_id=i % 7)
            for i in range(400)
        ]
        corrupted = injector.corrupt_many(originals)

        clamp = ClampOperator(REGION)
        outlier = OutlierFilterOperator(window=60, z_threshold=3.5, min_history=10)
        outlier.subscribe_to(clamp.output)
        sink = CollectingSink().attach(outlier.output)
        for item in corrupted:
            clamp.accept(item)

        raw_mean_error = abs(np.mean([item.value for item in corrupted]) - clean_truth)
        cleaned_mean_error = abs(np.mean([item.value for item in sink.items]) - clean_truth)
        assert cleaned_mean_error <= raw_mean_error
        assert cleaned_mean_error < 0.5
        assert all(REGION.contains(item.x, item.y, closed=True) for item in sink.items)
