"""The SoA sensing world: seeded construction and vectorised queries.

A world places its sensors exactly as the seed implementation did — one
per-sensor generator seeded from the world stream, the model's
``initial_state`` drawn from it — compared here with ``==``, not
``allclose``.  How a strict crowd then moves is held against each sensor
moved alone in ``tests/sensing/test_crowd_independence.py``.
"""

import numpy as np
import pytest

from repro.geometry import Rectangle, RectRegion
from repro.sensing import (
    AlwaysRespond,
    BernoulliParticipation,
    HotspotMobility,
    MobileSensor,
    RandomWaypointMobility,
    SensingWorld,
    SensorStateArrays,
    StationaryMobility,
    WorldConfig,
)
from repro.sensing.mobility import MobilityState

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)

MOBILITY_FACTORIES = {
    "stationary": lambda r: StationaryMobility(r),
    "waypoint": lambda r: RandomWaypointMobility(r, speed=0.4, pause=0.3),
    "hotspot": lambda r: HotspotMobility(r, [(1.0, 1.0, 1.0), (3.0, 3.0, 2.0)]),
}


class TestStrictModeEquivalence:
    """Strict SoA placement == the old per-object path, bit for bit."""

    @pytest.mark.parametrize("name", sorted(MOBILITY_FACTORIES))
    def test_initial_states_byte_identical_to_per_object_path(self, name):
        # Every model, every placed column: the world draws each sensor's
        # seed and placement as the per-object simulator did (and only then
        # drops the generator of a sensor whose model has a kernel).
        factory = MOBILITY_FACTORIES[name]
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=40, seed=17), mobility_factory=factory
        )
        rng = np.random.default_rng(17)
        soa = world.state_arrays
        for index in range(40):
            model = factory(REGION)
            sensor_rng = np.random.default_rng(rng.integers(0, 2 ** 63 - 1))
            state = model.initial_state(sensor_rng)
            assert isinstance(state, MobilityState)
            for column in ("x", "y", "vx", "vy", "pause_remaining"):
                assert getattr(soa, column)[index] == getattr(state, column), column
            for column in ("target_x", "target_y"):
                expected = getattr(state, column)
                got = getattr(soa, column)[index]
                assert np.isnan(got) if expected is None else got == expected
        assert world.rng.bit_generator.state == rng.bit_generator.state

    def test_initial_positions_byte_identical(self):
        factory = MOBILITY_FACTORIES["waypoint"]
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=30, seed=23),
            mobility_factory=factory,
        )
        rng = np.random.default_rng(23)
        for sensor in world.sensors:
            model = factory(REGION)
            sensor_rng = np.random.default_rng(rng.integers(0, 2 ** 63 - 1))
            state = model.initial_state(sensor_rng)
            assert (sensor.position.x, sensor.position.y) == (state.x, state.y)


class TestSensorStateArrays:
    def test_rejects_empty(self):
        from repro.errors import CraqrError

        with pytest.raises(CraqrError):
            SensorStateArrays(0)

    def test_standalone_sensor_owns_private_row(self):
        sensor = MobileSensor(
            7, StationaryMobility(REGION), rng=np.random.default_rng(1)
        )
        assert sensor.requests_received == 0
        assert REGION.contains_point(sensor.position, closed=True)

    def test_participation_columns_populated(self):
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=10, seed=3),
            participation_factory=lambda i: BernoulliParticipation(
                0.4, mean_latency=0.3, max_probability=0.9
            ),
        )
        soa = world.state_arrays
        assert np.all(soa.vector_participation)
        assert np.all(soa.p_base == 0.4)
        assert np.all(soa.p_max == 0.9)
        assert np.all(soa.latency_mean == 0.3)
        assert np.all(soa.incentive_sensitive)

    def test_always_respond_is_incentive_insensitive(self):
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=4, seed=3),
            participation_factory=lambda i: AlwaysRespond(),
        )
        soa = world.state_arrays
        assert np.all(soa.vector_participation)
        assert np.all(soa.p_base == 1.0)
        assert not np.any(soa.incentive_sensitive)


class TestVectorisedWorldQueries:
    def make_world(self, sensor_count=200, seed=6):
        return SensingWorld(
            WorldConfig(region=REGION, sensor_count=sensor_count, seed=seed),
            mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.3),
        )

    def test_sensors_in_matches_per_sensor_loop(self):
        world = self.make_world()
        world.advance(3.0)
        sub_region = RectRegion(Rectangle(0.5, 0.5, 2.5, 2.5))
        vectorised = world.sensors_in(sub_region)
        looped = [
            sensor
            for sensor in world.sensors
            if sub_region.contains(sensor.position.x, sensor.position.y, closed=True)
        ]
        assert vectorised == looped
        assert 0 < len(vectorised) < 200

    def test_sensors_in_rectangle_matches_per_sensor_loop(self):
        world = self.make_world(seed=8)
        rect = Rectangle(2.0, 0.0, 4.0, 2.0)
        vectorised = world.sensors_in(rect)
        looped = [
            sensor
            for sensor in world.sensors
            if rect.contains(sensor.position.x, sensor.position.y, closed=True)
        ]
        assert vectorised == looped

    def test_sensor_indices_align_with_sensor_ids(self):
        world = self.make_world(seed=9)
        rect = Rectangle(0.0, 0.0, 2.0, 4.0)
        indices = world.sensor_indices_in(rect)
        assert [world.sensors[int(i)].sensor_id for i in indices] == list(
            world.state_arrays.sensor_ids[indices]
        )

    def test_density_snapshot_matches_per_sensor_loop(self):
        world = self.make_world(sensor_count=300, seed=11)
        world.advance(2.0)
        counts = world.density_snapshot(5, 3)
        assert counts.sum() == 300
        expected = np.zeros((3, 5), dtype=int)
        for sensor in world.sensors:
            pos = sensor.position
            q = min(int((pos.x - REGION.x_min) / REGION.width * 5), 4)
            r = min(int((pos.y - REGION.y_min) / REGION.height * 3), 2)
            expected[r, q] += 1
        assert np.array_equal(counts, expected)

    def test_density_snapshot_clips_out_of_region_positions(self):
        # Regression: a custom mobility model that escapes the region used
        # to produce negative bucket indices — a bincount ValueError for
        # strongly negative y, or silent miscounts via r*nx+q collisions
        # for slightly negative x.  Escaped sensors now land in the nearest
        # boundary bucket and every sensor stays counted.
        world = self.make_world(sensor_count=12, seed=13)
        soa = world.state_arrays
        soa.x[0] = -3.0   # far left of the region
        soa.y[1] = -9.0   # far below (negative flat index without clipping)
        soa.x[2] = 11.0   # far right
        soa.y[3] = 7.5    # far above
        counts = world.density_snapshot(4, 4)
        assert counts.sum() == 12
        assert counts[:, 0].sum() >= 1   # the left escapee
        assert counts[0, :].sum() >= 1   # the bottom escapee
        assert counts[:, 3].sum() >= 1   # the right escapee
        assert counts[3, :].sum() >= 1   # the top escapee

    def test_sensor_positions_reflect_soa_columns(self):
        world = self.make_world(sensor_count=50, seed=12)
        positions = world.sensor_positions()
        assert positions.shape == (50, 2)
        assert np.array_equal(positions[:, 0], world.state_arrays.x)
        assert np.array_equal(positions[:, 1], world.state_arrays.y)
        # A copy, not an aliased view: advancing must not mutate it.
        before = positions.copy()
        world.advance(1.0)
        assert np.array_equal(positions, before)
