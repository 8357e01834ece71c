"""Sensor-major ``advance`` of kernel-less sensors: sub-steps back to back.

A sensor whose model has no kernel of its own (a custom subclass) moves
with its private generator, and that stream fixes only the order of *its
own* draws, so ``SensingWorld.advance`` steps one such sensor through every
movement sub-step before touching the next.  The step-major loop it
replaced (every sensor takes sub-step ``k`` before any takes ``k + 1``) is
kept here as the reference and compared on bytes: all seven mobility
columns, every generator's state and the clock, after every call.  (Sensors
whose model has a kernel move through it in both modes; in strict mode
their reference is each sensor moved alone,
``tests/sensing/test_crowd_independence.py``.)
"""

import pytest

from repro.geometry import Rectangle
from repro.sensing import (
    RandomWalkMobility,
    RandomWaypointMobility,
    SensingWorld,
    StationaryMobility,
    WorldConfig,
)
from repro.sensing.mobility import MobilityState

from test_skip_ahead import advance_against

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)

MOBILITY_COLUMNS = ("x", "y", "vx", "vy", "target_x", "target_y", "pause_remaining")


class Drifter(RandomWalkMobility):
    """Customised scalar dynamics and no kernel: ``batch_key()`` is ``None``."""

    def step(self, state, dt, rng):
        super().step(state, dt, rng)
        state.x += 0.125 * dt
        self._clamp(state)


def step_major_advance(world, duration):
    """The pre-rewrite ``advance``: every sensor takes sub-step k before any takes k+1.

    Kernel groups draw from the world's generator, so this reference is
    for fast-sim worlds and strict worlds without kernel groups.
    """
    assert world.vectorized or not world._mobility_groups
    scalar_sensors = world.sensors_at(world._ungrouped_indices)
    remaining = duration
    while remaining > 1e-12:
        dt = min(world.config.movement_step, remaining)
        for model, rows in world._mobility_groups:
            model.step_batch(world.state_arrays, rows, dt, world.rng)
        for sensor in scalar_sensors:
            sensor.move(dt)
        world.clock.advance(dt)
        remaining -= dt


def world_image(world):
    soa = world.state_arrays
    columns = [getattr(soa, name).tobytes() for name in MOBILITY_COLUMNS]
    generators = [
        sensor._rng.bit_generator.state
        for sensor in world.sensors
        if sensor._rng is not None  # kernel models keep none
    ]
    return columns, generators, world.rng.bit_generator.state, float.hex(world.now)


class TestSensorMajorAdvance:
    """``advance`` runs each kernel-less sensor's sub-steps back to back — same bytes.

    A sensor's stream only fixes the order of *its own* draws, so the
    sensor-major walk must reproduce the step-major loop exactly: every
    mobility column, every generator and the clock, after every call.
    """

    DURATIONS = (1.0, 0.25, 0.07)  # 0.07: one fractional sub-step at step 0.1

    def test_strict_kernel_less_crowd_matches_the_step_major_loop(self):
        def make_world():
            return SensingWorld(
                WorldConfig(region=REGION, sensor_count=30, seed=17, movement_step=0.1),
                mobility_factory=lambda r: Drifter(r, step_std=0.2),
            )

        world, twin = make_world(), make_world()
        assert world_image(world) == world_image(twin)
        for call in range(51):
            duration = self.DURATIONS[call % len(self.DURATIONS)]
            world.advance(duration)
            step_major_advance(twin, duration)
            assert world_image(world) == world_image(twin), (call, duration)

    def test_kernel_less_sensors_of_a_fast_sim_world(self):
        # Every third sensor has no kernel: it is stepped from its own
        # generator, sensor-major, while the waypoint group keeps the
        # step-by-step kernel dispatch on the shared stream — over the rows
        # ``skip_ahead`` hands back.  The step-major loop sub-steps every
        # row, so the columns are compared on the terms of
        # ``test_skip_ahead.py`` (skipped waypoint rows to the last bits,
        # everything else on bytes, each call from the same bytes); the
        # generators and the clock stay exact.
        def make_world():
            created = []

            def factory(region):
                created.append(None)
                if len(created) % 3 == 0:
                    return Drifter(region, step_std=0.2)
                return RandomWaypointMobility(region, speed=0.4, pause=0.3)

            return SensingWorld(
                WorldConfig(
                    region=REGION, sensor_count=30, seed=17, movement_step=0.1,
                    vectorized_rng=True,
                ),
                mobility_factory=factory,
            )

        world = make_world()
        assert world._ungrouped_indices.tolist() == list(range(2, 30, 3))
        skipped = 0
        for call in range(51):
            duration = self.DURATIONS[call % len(self.DURATIONS)]
            twin, quiet = advance_against(world, duration, reference=step_major_advance)
            assert not quiet[world._ungrouped_indices].any()
            assert world_image(world)[1:] == world_image(twin)[1:], (call, duration)
            skipped += int(quiet.sum())
        assert skipped > 0

    def test_sub_steps_come_from_the_subtraction_loop(self):
        # advance(1.0) at step 0.1 ends on a sub-step of 0.09999999999999987:
        # the clock is the sum of those floats, not ten times 0.1.
        world = SensingWorld(WorldConfig(region=REGION, sensor_count=2, seed=1))
        world.advance(1.0)
        expected, remaining = 0.0, 1.0
        while remaining > 1e-12:
            dt = min(0.1, remaining)
            expected += dt
            remaining -= dt
        assert float.hex(world.now) == float.hex(expected)
        assert world.clock.ticks == 10

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, 1.5, 4.0, -1e-300, -3.0, 4.000000000000001, 1e9,
         float("inf"), float("-inf"), float("nan")],
    )
    def test_clamp_matches_min_max(self, value):
        model = StationaryMobility(REGION)
        state = MobilityState(x=value, y=-value)
        model._clamp(state)
        for got, raw, low, high in (
            (state.x, value, REGION.x_min, REGION.x_max),
            (state.y, -value, REGION.y_min, REGION.y_max),
        ):
            expected = min(max(raw, low), high)
            assert float.hex(got) == float.hex(expected)  # tells -0.0 from 0.0, NaN == NaN

    def test_failing_step_commits_the_row_and_propagates(self):
        class Breakdown(RuntimeError):
            pass

        class Fragile(RandomWalkMobility):
            """Raises half-way through its third step (x moved, y not yet)."""

            def __init__(self, region, fragile):
                super().__init__(region, step_std=0.2)
                self._fragile = fragile
                self.calls = 0

            def step(self, state, dt, rng):
                self.calls += 1
                if self._fragile and self.calls == 3:
                    state.x += 0.0625
                    raise Breakdown
                super().step(state, dt, rng)

        def make_world(fragile_index):
            created = []

            def factory(region):
                created.append(None)
                return Fragile(region, fragile=len(created) - 1 == fragile_index)

            return SensingWorld(
                WorldConfig(region=REGION, sensor_count=3, seed=5), mobility_factory=factory
            )

        world, healthy = make_world(1), make_world(None)
        start = world.sensor_positions()
        with pytest.raises(Breakdown):
            world.advance(1.0)
        # The first sensor finished its ten sub-steps before the failure.
        healthy.advance(1.0)
        assert tuple(world.sensor_positions()[0]) == tuple(healthy.sensor_positions()[0])
        # The failing sensor's row holds two whole steps plus what the third
        # left behind (the commit is in a ``finally``).
        twin = make_world(None).sensors[1]
        twin.move(0.1)
        twin.move(0.1)
        assert world.sensors[1].position.x == twin.position.x + 0.0625
        assert world.sensors[1].position.y == twin.position.y
        # Nobody after it moved.
        assert tuple(world.sensor_positions()[2]) == tuple(start[2])
