"""Unit tests for the simulation clock and mobility models."""

import numpy as np
import pytest

from repro.errors import CraqrError
from repro.geometry import Rectangle
from repro.sensing import (
    HotspotMobility,
    MobileSensor,
    RandomWaypointMobility,
    SensingWorld,
    SimulationClock,
    StationaryMobility,
    WorldConfig,
)

REGION = Rectangle(0.0, 0.0, 2.0, 2.0)


class TestSimulationClock:
    def test_starts_at_given_time(self):
        clock = SimulationClock(5.0)
        assert clock.now == 5.0
        assert clock.start == 5.0
        assert clock.elapsed == 0.0

    def test_advance(self):
        clock = SimulationClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)
        assert clock.ticks == 2

    def test_advance_rejects_non_positive(self):
        clock = SimulationClock()
        with pytest.raises(CraqrError):
            clock.advance(0.0)
        with pytest.raises(CraqrError):
            clock.advance(-1.0)

    def test_reset(self):
        clock = SimulationClock(1.0)
        clock.advance(3.0)
        clock.reset()
        assert clock.now == 1.0
        assert clock.ticks == 0


def run_model(model, steps=200, dt=0.1, seed=0):
    """A lone sensor's trajectory: placed and moved from key ``seed`` by the model's kernels."""
    sensor = MobileSensor(0, model, acquisition_key=seed)
    return np.array([tuple(sensor.move(dt)) for _ in range(steps)])


class TestMobilityModels:
    def test_initial_state_inside_region(self):
        for model_cls in (StationaryMobility, RandomWaypointMobility):
            for key in range(20):
                sensor = MobileSensor(key, model_cls(REGION), acquisition_key=key)
                assert REGION.contains(*sensor.position, closed=True)

    def test_stationary_never_moves(self):
        model = StationaryMobility(REGION)
        start = tuple(MobileSensor(0, model, acquisition_key=2).position)
        positions = run_model(model, seed=2)
        assert np.allclose(positions, start)

    def test_random_waypoint_reaches_targets(self):
        model = RandomWaypointMobility(REGION, speed=1.0, pause=0.0)
        positions = run_model(model, steps=500, seed=5)
        # The trajectory should cover a substantial part of the region.
        assert positions[:, 0].max() - positions[:, 0].min() > 0.5
        assert positions[:, 1].max() - positions[:, 1].min() > 0.5

    def test_random_waypoint_rejects_bad_params(self):
        with pytest.raises(CraqrError):
            RandomWaypointMobility(REGION, speed=0.0)
        with pytest.raises(CraqrError):
            RandomWaypointMobility(REGION, pause=-1.0)

    def test_random_waypoint_pauses(self):
        model = RandomWaypointMobility(REGION, speed=10.0, pause=5.0)
        sensor = MobileSensor(0, model, acquisition_key=6)
        # A huge speed reaches the target in one step, then pauses.
        position_after_arrival = sensor.move(1.0)
        assert sensor.move(1.0) == position_after_arrival

    def test_hotspot_mobility_concentrates_near_hotspots(self):
        hotspots = [(0.5, 0.5, 1.0)]
        model = HotspotMobility(REGION, hotspots, speed=0.5, jitter=0.02)
        positions = run_model(model, steps=400, seed=8)
        # After a while, most positions should be near the single hotspot.
        tail = positions[200:]
        distance = np.hypot(tail[:, 0] - 0.5, tail[:, 1] - 0.5)
        assert np.median(distance) < 0.4

    @pytest.mark.parametrize(
        "params",
        [
            dict(speed=float("nan")),
            dict(speed=float("inf")),
            dict(pause=float("nan")),
            dict(pause=float("inf")),
        ],
        ids=["speed-nan", "speed-inf", "pause-nan", "pause-inf"],
    )
    def test_random_waypoint_refuses_non_finite_params(self, params):
        # speed=nan used to send every walker to NaN on the first advance.
        with pytest.raises(CraqrError, match="finite"):
            RandomWaypointMobility(REGION, **params)

    @pytest.mark.parametrize(
        "hotspots, params",
        [
            ([(0.5, 0.5, 1.0)], dict(speed=float("nan"))),
            ([(0.5, 0.5, 1.0)], dict(jitter=float("nan"))),
            ([(0.5, 0.5, 1.0)], dict(jitter=float("inf"))),
            ([(0.5, 0.5, 1.0)], dict(switch_probability=float("nan"))),
            ([(float("nan"), 0.5, 1.0)], {}),
            ([(0.5, float("inf"), 1.0)], {}),
            ([(0.5, 0.5, 1.0), (1.5, 1.5, float("nan"))], {}),
            ([(0.5, 0.5, float("inf"))], {}),
        ],
        ids=[
            "speed-nan", "jitter-nan", "jitter-inf", "switch-nan", "x-nan", "y-inf",
            "weight-nan", "weight-inf",
        ],
    )
    def test_hotspot_refuses_non_finite_params(self, hotspots, params):
        # jitter=nan used to send every walker to NaN on the first advance; a
        # NaN weight would skew the inverse-CDF hotspot choice silently.
        with pytest.raises(CraqrError):
            HotspotMobility(REGION, hotspots, **params)

    def test_nan_speed_crowd_is_refused_before_it_moves(self):
        with pytest.raises(CraqrError):
            SensingWorld(
                WorldConfig(region=REGION, sensor_count=50, seed=1),
                mobility_factory=lambda r: RandomWaypointMobility(r, speed=float("nan")),
            )

    def test_hotspot_mobility_validation(self):
        with pytest.raises(CraqrError):
            HotspotMobility(REGION, [])
        with pytest.raises(CraqrError):
            HotspotMobility(REGION, [(0.5, 0.5, 0.0)])
        with pytest.raises(CraqrError):
            HotspotMobility(REGION, [(0.5, 0.5, 1.0)], switch_probability=2.0)
