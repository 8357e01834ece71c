"""Strict movement is crowd-independent: a crowd's advance is each sensor's, alone.

A strict sensor moves from its keyed stream: block ``c`` of the stream
keyed ``(world.acquisition_key, sensor id)`` at counter ``(c, MOVEMENT, 0,
0)``, ``c`` its ``moves_drawn``.  So its trajectory is a function of the
seed, its id, its state and the sub-step ``dt``\\ s, never of the rest of
the crowd — which is what lets ``SensingWorld.advance`` run the vectorised
kernels and ``skip_ahead`` in strict mode.

The oracle advances a twin world one sensor at a time, each through
``MobileSensor.move`` (the model's kernel on the sensor's one-row slice,
``skip_ahead`` for the window first), visiting the sensors in a *shuffled*
order, and compares on bytes: the seven mobility columns, ``moves_drawn``,
the world generator (strict movement draws nothing from it) and the clock.
The crowds cover every built-in kernel, a mixed crowd whose groups reach
the kernels as index arrays, a custom subclass that inherits its parent's
kernel, and waypoint walkers that ``skip_ahead`` moves in one stride.

Placement follows the same contract under both RNG contracts: a sensor
starts from block 0 of the stream keyed ``(world.acquisition_key, sensor
id)`` at counter word 1 = ``PLACEMENT``, so its placement bytes depend on
(seed, id) only.  The oracle places each row alone, from its block as
:func:`repro.rng.philox4x64` computes it, by scalar arithmetic.
"""

import bisect
import io
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Rectangle
from repro.recovery.snapshot import _SnapshotPickler
from repro.rng import PLACEMENT, philox4x64
from repro.sensing import (
    HotspotMobility,
    MobileSensor,
    RandomWaypointMobility,
    SensingWorld,
    StationaryMobility,
    WorldConfig,
)

from test_skip_ahead import quiet_rows

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)

COLUMNS = (
    "x", "y", "vx", "vy", "target_x", "target_y", "pause_remaining", "moves_drawn",
)


class Drifter(HotspotMobility):
    """A custom subclass that inherits its parent's kernel."""


HOTSPOTS = [(1.0, 1.0, 1.0), (3.0, 3.0, 2.0), (4.0, 0.0, 0.5)]


def waypoint(region):
    return RandomWaypointMobility(region, speed=0.4, pause=0.3)


def hotspot(region):
    return HotspotMobility(region, HOTSPOTS, switch_probability=0.1)


def jitter(region):
    """Gaussian steps wider than the region: most rows clamp at a wall."""
    return HotspotMobility(region, HOTSPOTS, speed=0.1, jitter=5.0)


def alternating(*factories):
    """Sensor ``i`` gets ``factories[i % len(factories)]``: interleaved groups."""
    created = []

    def factory(region):
        created.append(None)
        return factories[(len(created) - 1) % len(factories)](region)

    return factory


#: name -> a fresh ``mobility_factory`` (``alternating`` counts its calls).
CROWDS = {
    "waypoint": lambda: waypoint,
    "hotspot": lambda: hotspot,
    "jitter": lambda: jitter,
    "stationary": lambda: StationaryMobility,
    "mixed": lambda: alternating(waypoint, StationaryMobility, hotspot),
    # The Drifters' parameters equal the hotspot walkers': only the class
    # tells them apart.
    "custom": lambda: alternating(
        waypoint, hotspot, lambda region: Drifter(region, HOTSPOTS, switch_probability=0.1)
    ),
}


def make_world(crowd, *, count=30, seed=17, movement_step=0.1):
    return SensingWorld(
        WorldConfig(
            region=REGION, sensor_count=count, seed=seed, movement_step=movement_step
        ),
        mobility_factory=CROWDS[crowd]() if isinstance(crowd, str) else crowd,
    )


def world_image(world):
    soa = world.state_arrays
    columns = [getattr(soa, name).tobytes() for name in COLUMNS]
    return columns, world.rng.bit_generator.state, float.hex(world.now)


def advance_alone(world, duration, order):
    """The oracle: every sensor moved alone, in ``order``; then the clock."""
    step = world.config.movement_step
    for index in order:
        world.sensors[index].move(duration, step)
    remaining = duration
    while remaining > 1e-12:
        dt = min(step, remaining)
        world.clock.advance(dt)
        remaining -= dt


def assert_crowd_independent(world, twin, durations, *, calls, seed=0):
    """``world.advance`` vs ``advance_alone`` on ``twin``; returns the rows skipped."""
    shuffle = random.Random(seed)
    start = world.rng.bit_generator.state
    assert world_image(world) == world_image(twin)
    skipped = 0
    for call in range(calls):
        duration = durations[call % len(durations)]
        skipped += int(quiet_rows(world, duration).sum())
        order = list(range(len(world.sensors)))
        shuffle.shuffle(order)
        world.advance(duration)
        advance_alone(twin, duration, order)
        assert world_image(world) == world_image(twin), (call, duration)
    assert world.rng.bit_generator.state == start  # strict moves draw no world stream
    return skipped


DURATIONS = (1.0, 0.25, 0.07, 2.5)  # 0.07: one fractional sub-step at step 0.1


@pytest.mark.parametrize("crowd", sorted(CROWDS))
def test_crowd_advance_equals_each_sensor_advanced_alone(crowd):
    world, twin = make_world(crowd), make_world(crowd)
    # Interleaved groups reach the kernels as index arrays.
    if crowd in ("mixed", "custom"):
        assert all(isinstance(rows, np.ndarray) for _, rows in world._mobility_groups)
    if crowd == "custom":  # the subclass is its own group, apart from its parent's
        groups = {type(model): rows for model, rows in world._mobility_groups}
        assert set(groups) == {RandomWaypointMobility, HotspotMobility, Drifter}
        assert groups[Drifter].tolist() == list(range(2, 30, 3))
    skipped = assert_crowd_independent(world, twin, DURATIONS, calls=24)
    if crowd in ("waypoint", "mixed", "custom"):
        assert skipped > 0  # rows skip_ahead moved were compared too
    assert world.state_arrays.moves_drawn.any() == (crowd != "stationary")


@pytest.mark.parametrize("crowd", ["waypoint", "mixed"])
def test_a_sensor_moves_the_same_in_any_crowd(crowd):
    # From one seed, sensor 7 is placed alike in a 30-crowd and a 12-crowd
    # (placements are drawn in id order); its moves then stay byte-equal,
    # whatever the other rows — and the selector shapes — do.
    big, small = make_world(crowd), make_world(crowd, count=12)
    for duration in DURATIONS * 5:
        big.advance(duration)
        small.advance(duration)
        for name in COLUMNS:
            ours = getattr(big.state_arrays, name)[7:8]
            assert ours.tobytes() == getattr(small.state_arrays, name)[7:8].tobytes(), name


def test_restored_world_keeps_its_movement_counters():
    world = make_world("mixed")
    world.advance(3.0)
    restored = pickle.loads(pickle.dumps(world))
    moves = world.state_arrays.moves_drawn
    assert restored.state_arrays.moves_drawn.tobytes() == moves.tobytes()
    for duration in DURATIONS:
        world.advance(duration)
        restored.advance(duration)
    assert world_image(restored) == world_image(world)


@pytest.mark.parametrize("crowd", sorted(CROWDS))
def test_sensors_carry_no_generator(crowd):
    # What a checkpoint pickles: the world's own stream, and no sensor's.
    world = make_world(crowd)
    reduced = []

    class Counting(_SnapshotPickler):
        dispatch_table = dict(_SnapshotPickler.dispatch_table)

    def count(generator):
        reduced.append(generator)
        return _SnapshotPickler.dispatch_table[np.random.Generator](generator)

    Counting.dispatch_table[np.random.Generator] = count
    Counting(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(world)
    assert len(reduced) == 1 and reduced[0] is world.rng


def test_sub_steps_come_from_the_subtraction_loop():
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


@settings(max_examples=15, deadline=None)
@given(
    mix=st.lists(
        st.sampled_from(["waypoint", "hotspot", "stationary"]),
        min_size=1, max_size=4,
    ),
    count=st.integers(min_value=1, max_value=25),
    duration=st.sampled_from([0.04, 0.25, 1.0, 1.05, 3.0]),
    movement_step=st.sampled_from([0.03, 0.1, 0.5]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_crowd_and_window(mix, count, duration, movement_step, seed):
    # Imported here, not at the top: that module imports this one's crowds.
    from test_compact_advance import assert_matches_oracle, build as build_world

    def build(vectorized=False):
        return build_world(
            alternating(*(CROWDS[name]() for name in mix)), vectorized=vectorized,
            count=count, seed=seed, movement_step=movement_step,
        )

    assert_crowd_independent(build(), build(), (duration,), calls=4, seed=seed)
    # ... and equal to the advance that neither compacts nor prefetches.
    for vectorized in (False, True):
        assert_matches_oracle(build(vectorized), (duration,), calls=4)


# -- placement -----------------------------------------------------------------


def placement_oracle(model, key, sensor_id):
    """Row ``sensor_id``'s placement, alone: its PLACEMENT block, scalar arithmetic.

    Words 0/1 place it uniformly in the region; a hotspot walker's word 2
    picks its target hotspot by the weights' normalised CDF (``bisect_right``,
    as ``Generator.choice`` turns a uniform into an index).
    """
    words = philox4x64((0, PLACEMENT, 0, 0), (key, sensor_id))
    u = [float(word[0] >> np.uint64(11)) * 2.0 ** -53 for word in words]
    region = model.region
    row = dict.fromkeys(COLUMNS, 0.0)
    row["x"] = region.x_min + (region.x_max - region.x_min) * u[0]
    row["y"] = region.y_min + (region.y_max - region.y_min) * u[1]
    row["target_x"] = row["target_y"] = float("nan")
    if isinstance(model, HotspotMobility):
        weights = np.array([w for _, _, w in model._hotspots])
        cdf = np.cumsum(weights / weights.sum())
        cdf /= cdf[-1]
        row["target_x"], row["target_y"], _ = model._hotspots[
            bisect.bisect_right(cdf.tolist(), u[2])
        ]
    return row


def placement_bytes(arrays, index):
    return [getattr(arrays, name)[index : index + 1].tobytes() for name in COLUMNS]


def oracle_bytes(model, key, sensor_id):
    row = placement_oracle(model, key, sensor_id)
    dtypes = {"moves_drawn": np.int64}
    return [
        np.array([row[name]], dtype=dtypes.get(name, np.float64)).tobytes()
        for name in COLUMNS
    ]


@pytest.mark.parametrize(
    "crowd, count", [("waypoint", 10), ("waypoint", 1000), ("mixed", 1000), ("custom", 30)]
)
@pytest.mark.parametrize("vectorized", [False, True], ids=["strict", "fast-sim"])
def test_each_row_is_placed_from_its_own_block(crowd, count, vectorized):
    world = SensingWorld(
        WorldConfig(region=REGION, sensor_count=count, seed=17, vectorized_rng=vectorized),
        mobility_factory=CROWDS[crowd](),
    )
    key = world.acquisition_key
    for view in world.sensors:
        index = view.sensor_id
        assert placement_bytes(world.state_arrays, index) == oracle_bytes(
            view.mobility, key, index
        ), index
    # Placement draws nothing from the world stream, under either contract.
    fresh = np.random.default_rng(17).bit_generator.state
    assert world.rng.bit_generator.state == fresh


def test_a_sensor_is_placed_alike_in_any_crowd():
    # A row's placement depends on (seed, id): sensor 7 starts on the same
    # bytes in a 10-crowd and a 1000-crowd, and in the mixed crowd its
    # place (its model is a waypoint walker there too) is the same again.
    small, big = make_world("waypoint", count=10), make_world("waypoint", count=1000)
    mixed = make_world("mixed", count=1000)
    for index in range(10):
        assert placement_bytes(small.state_arrays, index) == placement_bytes(
            big.state_arrays, index
        )
    for index in range(0, 1000, 3):  # the mixed crowd's waypoint rows
        assert placement_bytes(mixed.state_arrays, index) == placement_bytes(
            big.state_arrays, index
        )
    # ... and a different seed places it elsewhere.
    other = make_world("waypoint", count=10, seed=18)
    assert placement_bytes(other.state_arrays, 7) != placement_bytes(small.state_arrays, 7)


@pytest.mark.parametrize("crowd", ["mixed", "custom"])
def test_a_standalone_sensor_given_the_worlds_key_starts_where_the_world_places_it(crowd):
    world = make_world(crowd)
    for view in world.sensors:
        alone = MobileSensor(
            view.sensor_id, view.mobility, acquisition_key=world.acquisition_key
        )
        assert placement_bytes(alone._arrays, 0) == placement_bytes(
            world.state_arrays, view.sensor_id
        )


def test_building_a_world_constructs_one_generator(monkeypatch):
    made = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    world = make_world("mixed", count=200)
    assert made == [(17,)]
    assert len(world.sensors) == 200  # views build no generator either
    assert made == [(17,)]


def test_a_world_is_placed_in_one_keyed_call(monkeypatch):
    import repro.sensing.mobility as mobility

    purposes = []
    keyed_uniforms = mobility.keyed_uniforms

    def counting(key, ids, counters, purpose):
        purposes.append((purpose, len(ids)))
        return keyed_uniforms(key, ids, counters, purpose)

    monkeypatch.setattr(mobility, "keyed_uniforms", counting)
    make_world("mixed", count=300)
    assert purposes == [(PLACEMENT, 300)]
