"""The SoA sensing world: construction, model groups and vectorised queries.

A world keeps one model object per group and builds ``MobileSensor`` views
when asked for them.  Where it places its sensors (one keyed block each)
and how a strict crowd then moves are held against each sensor alone in
``tests/sensing/test_crowd_independence.py``.
"""

import numpy as np
import pytest

from repro.geometry import Rectangle, RectRegion
from repro.sensing import (
    AlwaysRespond,
    BernoulliParticipation,
    FatigueParticipation,
    HotspotMobility,
    MobileSensor,
    RandomWaypointMobility,
    SensingWorld,
    SensorStateArrays,
    StationaryMobility,
    WorldConfig,
)

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)

MOBILITY_FACTORIES = {
    "stationary": lambda r: StationaryMobility(r),
    "waypoint": lambda r: RandomWaypointMobility(r, speed=0.4, pause=0.3),
    "hotspot": lambda r: HotspotMobility(r, [(1.0, 1.0, 1.0), (3.0, 3.0, 2.0)]),
}


class TestOneModelPerGroup:
    """The world keeps one model object per group and builds sensor views on demand."""

    def test_factories_run_once_per_sensor_in_id_order(self):
        calls = []

        def mobility(region):
            calls.append("mobility")
            return RandomWaypointMobility(region, speed=0.4)

        def participation(sensor_id):
            calls.append(sensor_id)
            return BernoulliParticipation(0.5)

        SensingWorld(
            WorldConfig(region=REGION, sensor_count=4, seed=1),
            mobility_factory=mobility, participation_factory=participation,
        )
        assert calls == ["mobility", 0, "mobility", 1, "mobility", 2, "mobility", 3]

    def test_equal_models_are_kept_once(self):
        made = []

        def mobility(region):
            made.append(MOBILITY_FACTORIES["hotspot"](region))
            return made[-1]

        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=50, seed=2),
            mobility_factory=mobility,
            participation_factory=lambda i: BernoulliParticipation(0.4 if i % 2 else 0.6),
        )
        ((model, rows),) = world._mobility_groups
        assert model is made[0] and rows == slice(0, 50)
        kept = world._participation_models
        assert [m.vector_params()[0] for m in kept] == [0.6, 0.4]
        assert world.participation_at(np.arange(4)) == [kept[0], kept[1], kept[0], kept[1]]
        assert world.state_arrays.p_base.tolist() == [0.6, 0.4] * 25

    def test_stateful_models_stay_the_factorys_objects(self):
        made = {}

        def participation(sensor_id):
            if sensor_id % 3:
                return AlwaysRespond()
            made[sensor_id] = FatigueParticipation(0.7)
            return made[sensor_id]

        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=9, seed=3),
            participation_factory=participation,
        )
        models = world.participation_at(np.arange(9))
        for sensor_id, model in made.items():
            assert models[sensor_id] is made[sensor_id]
        assert len({id(m) for m in models}) == 4  # three fatigue models, one AlwaysRespond
        soa = world.state_arrays
        assert soa.vector_participation.tolist() == [i % 3 != 0 for i in range(9)]
        assert soa.p_base.tolist() == [1.0] * 9

    def test_one_shared_stateful_model_is_kept_once(self):
        shared = FatigueParticipation(0.7)
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=5, seed=4),
            participation_factory=lambda i: shared,
        )
        assert world._participation_models == [shared]
        assert not world.state_arrays.vector_participation.any()

    def test_sensor_views_are_built_on_demand(self):
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=6, seed=5),
            mobility_factory=MOBILITY_FACTORIES["waypoint"],
            participation_factory=lambda i: BernoulliParticipation(0.3),
        )
        first, again = world.sensors[4], world.sensors[4]
        assert first is not again
        assert first.sensor_id == again.sensor_id == 4
        assert first.mobility is again.mobility is world._mobility_groups[0][0]
        assert first.participation is world.participation_at(np.array([4]))[0]
        (view,) = world.sensors_at(np.array([4]))
        world.advance(1.0)
        soa = world.state_arrays
        assert (view.position.x, view.position.y) == (soa.x[4], soa.y[4])
        assert tuple(view.position) == tuple(first.position)


class TestSensorStateArrays:
    def test_rejects_empty(self):
        from repro.errors import CraqrError

        with pytest.raises(CraqrError):
            SensorStateArrays(0)

    def test_standalone_sensor_owns_private_row(self):
        sensor = MobileSensor(7, StationaryMobility(REGION), acquisition_key=1)
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
        assert [s.sensor_id for s in vectorised] == [s.sensor_id for s in looped]
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
        assert [s.sensor_id for s in vectorised] == [s.sensor_id for s in looped]

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
