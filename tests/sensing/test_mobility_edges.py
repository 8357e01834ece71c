"""Mobility edge cases: walls, pauses, mean reversion, movement windows.

Covers the boundary behaviour of all three models' ``step_batch`` kernels —
the only way a sensor moves — under the shared generator and the keyed
draw policy, on many rows and on one; waypoint pause accounting across
``advance`` sub-steps; the movement windows ``movement_substeps`` refuses;
and the protocol itself: a model without a kernel cannot be built.
"""

import numpy as np
import pytest

from repro.errors import CraqrError
from repro.geometry import Rectangle
from repro.sensing import (
    HotspotMobility,
    MobilityModel,
    RandomWaypointMobility,
    SensingWorld,
    SensorStateArrays,
    StationaryMobility,
    WorldConfig,
)
from repro.sensing.mobility import KeyedDraws, movement_substeps, place_groups

REGION = Rectangle(0.0, 0.0, 2.0, 2.0)

MODEL_FACTORIES = {
    # Aggressive parameters so every model hammers the walls.
    "stationary": lambda r: StationaryMobility(r),
    "waypoint": lambda r: RandomWaypointMobility(r, speed=5.0, pause=0.1),
    "hotspot": lambda r: HotspotMobility(
        r, [(0.05, 0.05, 1.0), (1.95, 1.95, 1.0)], speed=4.0, jitter=0.5
    ),
    # Gaussian steps much wider than the region: clamped nearly every step.
    "jitter": lambda r: HotspotMobility(r, [(1.0, 1.0, 1.0)], speed=0.1, jitter=3.0),
}


#: The two draw policies a kernel runs under, each built from a seed / key.
DRAWS = [
    pytest.param(np.random.default_rng, id="shared"),
    pytest.param(KeyedDraws, id="keyed"),
]

ONE_ROW = slice(0, 1)


def placed(model, count, key):
    """``count`` fresh rows with ids ``0..count-1``, placed by ``model`` as a world places them."""
    arrays = SensorStateArrays(count)
    arrays.sensor_ids[:] = np.arange(count)
    place_groups(arrays, [(model, slice(0, count))], key)
    return arrays


def in_region(xs, ys):
    return (
        np.all(xs >= REGION.x_min) and np.all(xs <= REGION.x_max)
        and np.all(ys >= REGION.y_min) and np.all(ys <= REGION.y_max)
    )


class TestWallBehaviourBatch:
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_batch_steps_never_escape_region(self, name):
        model = MODEL_FACTORIES[name](REGION)
        rng = np.random.default_rng(103)
        count = 64
        arrays = placed(model, count, 103)
        indices = np.arange(count)
        for _ in range(100):
            model.step_batch(arrays, indices, 0.2, rng)
            assert in_region(arrays.x, arrays.y)

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_a_sensor_moved_alone_never_escapes_region(self, name):
        # The per-object path: ``skip_ahead`` and the kernel on the sensor's
        # one-row slice, drawing keyed blocks — one window at a time.
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=3, seed=101),
            mobility_factory=MODEL_FACTORIES[name],
        )
        for sensor in world.sensors:
            xs, ys = [], []
            for _ in range(100):
                position = sensor.move(0.6, 0.2)
                xs.append(position.x)
                ys.append(position.y)
            assert in_region(np.array(xs), np.array(ys))
        assert in_region(world.state_arrays.x, world.state_arrays.y)

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_batch_kernel_handles_partial_masks(self, name):
        # Kernels must only touch the rows they are given.
        model = MODEL_FACTORIES[name](REGION)
        rng = np.random.default_rng(104)
        arrays = placed(model, 10, 104)
        frozen = arrays.positions()[5:].copy()
        for _ in range(20):
            model.step_batch(arrays, np.arange(5), 0.2, rng)
        assert np.array_equal(arrays.positions()[5:], frozen)


class TestHotspotAttraction:
    @pytest.mark.parametrize("draws", DRAWS)
    def test_without_switching_the_target_never_changes(self, draws):
        model = HotspotMobility(
            REGION, [(0.5, 0.5, 1.0), (1.5, 1.5, 1.0)], switch_probability=0.0
        )
        arrays = placed(model, 40, 9)
        targets = (arrays.target_x.copy(), arrays.target_y.copy())
        policy = draws(10)
        for _ in range(50):
            model.step_batch(arrays, np.arange(40), 0.1, policy)
        assert arrays.target_x.tobytes() == targets[0].tobytes()
        assert arrays.target_y.tobytes() == targets[1].tobytes()

    @pytest.mark.parametrize("draws", DRAWS)
    def test_without_jitter_a_walker_arrives_and_stays(self, draws):
        model = HotspotMobility(
            REGION, [(1.5, 0.5, 1.0)], speed=1.0, jitter=0.0, switch_probability=0.5
        )
        arrays = SensorStateArrays(1)
        arrays.x[0] = arrays.y[0] = 0.25
        policy = draws(11)
        for _ in range(20):  # 1.58 to walk at 0.1 a step
            model.step_batch(arrays, ONE_ROW, 0.1, policy)
        assert (arrays.x[0], arrays.y[0]) == (1.5, 0.5)
        model.step_batch(arrays, ONE_ROW, 0.1, policy)
        assert (arrays.x[0], arrays.y[0]) == (1.5, 0.5)


class TestWaypointPauseAccounting:
    @pytest.mark.parametrize("draws", DRAWS)
    def test_pause_runs_down_across_steps_without_moving(self, draws):
        model = RandomWaypointMobility(REGION, speed=1.0, pause=0.35)
        arrays = SensorStateArrays(1)
        arrays.x[0] = arrays.y[0] = 1.0
        arrays.pause_remaining[0] = 0.35
        policy = draws(7)
        for expected in (0.25, 0.15, 0.05, 0.0):
            model.step_batch(arrays, ONE_ROW, 0.1, policy)
            assert arrays.pause_remaining[0] == pytest.approx(expected)
            assert (arrays.x[0], arrays.y[0]) == (1.0, 1.0)
        assert arrays.moves_drawn[0] == 0  # a pausing row draws nothing
        # Only the step *after* the timer hit zero starts a new leg.
        model.step_batch(arrays, ONE_ROW, 0.1, policy)
        assert (arrays.x[0], arrays.y[0]) != (1.0, 1.0)

    def test_paused_and_expired_rows_in_one_step(self):
        model = RandomWaypointMobility(REGION, speed=1.0, pause=0.35)
        arrays = SensorStateArrays(3)
        arrays.x[:] = arrays.y[:] = 1.0
        arrays.pause_remaining[:] = [0.35, 0.05, 0.0]
        rng = np.random.default_rng(8)
        model.step_batch(arrays, np.arange(3), 0.1, rng)
        # Paused rows ran their timers down in place ...
        assert arrays.pause_remaining[0] == pytest.approx(0.25)
        assert arrays.pause_remaining[1] == pytest.approx(0.0)
        assert np.all(arrays.x[:2] == 1.0) and np.all(arrays.y[:2] == 1.0)
        # ... while the expired row picked a target and moved.
        assert (arrays.x[2], arrays.y[2]) != (1.0, 1.0)
        assert not np.isnan(arrays.target_x[2])

    def test_pause_accounting_across_world_advance_sub_steps(self):
        # speed 50 reaches any target within one 0.1 sub-step, so the
        # sensor alternates arrive -> pause(0.3 = 3 sub-steps) -> walk.
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=1, seed=13, movement_step=0.1),
            mobility_factory=lambda r: RandomWaypointMobility(r, speed=50.0, pause=0.3),
        )
        soa = world.state_arrays
        world.advance(0.1)  # arrives at its first target and starts pausing
        resting = (float(soa.x[0]), float(soa.y[0]))
        assert soa.pause_remaining[0] == pytest.approx(0.3)
        world.advance(0.3)  # three sub-steps: 0.2 -> 0.1 -> 0.0, no movement
        assert soa.pause_remaining[0] == pytest.approx(0.0)
        assert (float(soa.x[0]), float(soa.y[0])) == resting
        world.advance(0.1)  # next leg: jumps to a fresh target, pauses again
        assert (float(soa.x[0]), float(soa.y[0])) != resting
        assert soa.pause_remaining[0] == pytest.approx(0.3)


class TestMovementWindows:
    """Every window is cut by ``movement_substeps``, which refuses what it cannot cut."""

    def test_a_window_shorter_than_the_step_is_one_sub_step(self):
        assert movement_substeps(0.04, 0.1) == [0.04]

    def test_whole_steps_cut_the_window_evenly(self):
        assert movement_substeps(0.5, 0.25) == [0.25, 0.25]

    def test_the_last_sub_step_takes_the_rest(self):
        dts = movement_substeps(1.0, 0.3)
        assert dts[:3] == [0.3, 0.3, 0.3]
        assert len(dts) == 4
        assert dts[3] == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "duration, step",
        [(0.0, 0.1), (-2.0, 0.1), (float("nan"), 0.1), (float("inf"), 0.1),
         (5e-13, 0.1), (1.0, 0.0), (1.0, -0.1), (1.0, float("nan"))],
    )
    def test_bad_windows_are_refused(self, duration, step):
        with pytest.raises(CraqrError):
            movement_substeps(duration, step)

    def make_world(self):
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=1, seed=4),
            mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.2),
        )
        world.advance(0.5)  # the walker holds a target now
        return world

    def image(self, world):
        soa = world.state_arrays
        columns = ("x", "y", "target_x", "target_y", "pause_remaining", "moves_drawn")
        return [getattr(soa, name).tobytes() for name in columns], float.hex(world.now)

    def test_a_sensor_refuses_a_negative_window_and_stays_put(self):
        # It used to skip ahead with negative travel: away from its target.
        world = self.make_world()
        before = self.image(world)
        with pytest.raises(CraqrError, match="duration"):
            world.sensors[0].move(-2.0)
        assert self.image(world) == before

    def test_a_sensor_refuses_a_zero_movement_step(self):
        # It used to loop forever, subtracting 0.0 from the window.
        world = self.make_world()
        before = self.image(world)
        with pytest.raises(CraqrError, match="step"):
            world.sensors[0].move(1.0, 0.0)
        assert self.image(world) == before

    @pytest.mark.parametrize("duration", [0.0, -1.0, 5e-13])
    def test_the_world_refuses_a_non_positive_window(self, duration):
        # 5e-13 is positive, but the sub-step loop cuts it into no sub-step:
        # it used to return the clock unchanged and move nothing.
        world = self.make_world()
        before = self.image(world)
        with pytest.raises(CraqrError, match="duration"):
            world.advance(duration)
        assert self.image(world) == before


class TestMobilityProtocol:
    """``step_batch`` and ``batch_key`` are the protocol: declared, never probed."""

    def test_a_model_without_a_kernel_cannot_be_built(self):
        class ScalarOnly(MobilityModel):
            def step(self, state, dt, rng):  # a per-sensor step is not a kernel
                state.x += dt

        with pytest.raises(TypeError, match="batch_key.*step_batch"):
            ScalarOnly(REGION)

    def test_a_kernel_without_a_key_cannot_be_built(self):
        class Keyless(MobilityModel):
            def step_batch(self, arrays, indices, dt, draws):
                pass

        with pytest.raises(TypeError, match="batch_key"):
            Keyless(REGION)

    def test_the_key_names_the_class(self):
        class Inheritor(RandomWaypointMobility):
            pass

        assert Inheritor(REGION).batch_key() == Inheritor(REGION).batch_key()
        assert Inheritor(REGION).batch_key() != RandomWaypointMobility(REGION).batch_key()


class TestRegionExtent:
    """A model refuses a region whose distances could not be computed.

    The kernels square a step's offsets (``_distance``): an infinite bound
    turned every position NaN after one ``advance``, and a squared diagonal
    that overflows would leave every distance infinite and the crowd still.
    """

    def test_an_infinite_region_is_refused_before_placement(self):
        with pytest.raises(CraqrError, match="finite region"):
            SensingWorld(
                WorldConfig(region=Rectangle(0.0, 0.0, np.inf, 8.0), sensor_count=5, seed=1),
                mobility_factory=lambda r: RandomWaypointMobility(r),
            )

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_every_model_refuses_an_infinite_bound(self, name):
        with pytest.raises(CraqrError, match="finite region"):
            MODEL_FACTORIES[name](Rectangle(-np.inf, 0.0, 2.0, 2.0))

    @pytest.mark.parametrize(
        "region",
        [Rectangle(0.0, 0.0, 1e155, 8.0), Rectangle(0.0, -1e154, 8.0, 1e154)],
        ids=["wide", "tall"],
    )
    def test_a_squared_diagonal_that_overflows_is_refused(self, region):
        with pytest.raises(CraqrError, match="squared diagonal overflows"):
            RandomWaypointMobility(region)

    def test_the_largest_regions_that_square_finitely_still_walk(self):
        region = Rectangle(0.0, 0.0, 1e150, 1e150)
        world = SensingWorld(
            WorldConfig(region=region, sensor_count=20, seed=3),
            mobility_factory=lambda r: RandomWaypointMobility(r, speed=1e149, pause=0.0),
        )
        before = world.state_arrays.x.copy()
        world.advance(1.0)
        assert np.all(np.isfinite(world.state_arrays.x)) and np.all(np.isfinite(world.state_arrays.y))
        assert not np.array_equal(world.state_arrays.x, before)

    def test_a_hotspot_too_far_from_the_region_is_refused(self):
        with pytest.raises(CraqrError, match="overflow"):
            HotspotMobility(REGION, [(1.0, 1.0, 1.0), (1e200, 0.0, 1.0)])
        HotspotMobility(REGION, [(1.0, 1.0, 1.0), (1e150, 0.0, 1.0)])
