"""Integration: error models + cleaning operators around a live CrAQR engine."""

import numpy as np
import pytest

from repro import AcquisitionalQuery, CraqrEngine
from repro.core.pmat import ClampOperator, OutlierFilterOperator
from repro.geometry import Rectangle
from repro.sensing import ErrorInjector, GpsNoiseModel, ValueErrorModel
from repro.streams import CollectingSink
from repro.workloads import build_rain_temperature_world, default_engine_config

REGION = Rectangle(0, 0, 4, 4)


class TestErrorAwareAcquisition:
    def test_corrupted_stream_cleaned_after_fabrication(self):
        """Fabricate a temperature stream, corrupt it, clean it, compare errors."""
        world = build_rain_temperature_world(sensor_count=250, seed=301)
        engine = CraqrEngine(default_engine_config(seed=302), world)
        handle = engine.register_query(
            AcquisitionalQuery("temp", Rectangle(0, 0, 4, 4), 5.0, name="city-temp")
        )
        engine.run(10)
        clean_items = handle.results()
        assert len(clean_items) > 100

        injector = ErrorInjector(
            gps=GpsNoiseModel(0.4, region=REGION),
            value=ValueErrorModel(noise_std=0.2, outlier_probability=0.04, outlier_scale=60.0),
            rng=np.random.default_rng(303),
        )
        corrupted = injector.corrupt_many(clean_items)

        clamp = ClampOperator(REGION)
        outlier = OutlierFilterOperator(window=80, z_threshold=4.0, min_history=15)
        outlier.subscribe_to(clamp.output)
        sink = CollectingSink().attach(outlier.output)
        for item in corrupted:
            clamp.accept(item)

        true_mean = float(np.mean([item.value for item in clean_items]))
        corrupted_mean = float(np.mean([item.value for item in corrupted]))
        cleaned_mean = float(np.mean([item.value for item in sink.items]))
        # The cleaning chain removes most of the bias the gross outliers add.
        assert abs(cleaned_mean - true_mean) <= abs(corrupted_mean - true_mean)
        assert abs(cleaned_mean - true_mean) < 0.5
        # Positions stay inside the deployment region after clamping.
        assert all(REGION.contains(i.x, i.y, closed=True) for i in sink.items)
        # The filter keeps the overwhelming majority of genuine readings.
        assert len(sink) > 0.85 * len(corrupted)

    def test_gps_noise_moves_some_tuples_across_cells(self):
        """GPS errors re-map some tuples to neighbouring cells; the engine's
        map phase (fabricator) routes them by reported coordinates, so the
        error model composes with the pipeline without crashes."""
        world = build_rain_temperature_world(sensor_count=200, seed=311)
        engine = CraqrEngine(default_engine_config(seed=312), world)
        handle = engine.register_query(
            AcquisitionalQuery("rain", Rectangle(0, 0, 2, 2), 8.0)
        )
        engine.run(5)
        items = handle.results()
        injector = ErrorInjector(
            gps=GpsNoiseModel(0.6, region=REGION), rng=np.random.default_rng(313)
        )
        corrupted = injector.corrupt_many(items)
        moved = sum(
            1
            for before, after in zip(items, corrupted)
            if engine.grid.locate(before.x, before.y).key
            != engine.grid.locate(after.x, after.y).key
        )
        assert moved > 0
        assert moved < len(items)
