"""``advance`` compacts the eventful rows once and draws their movement blocks once.

After the draw-free ``skip_ahead`` pre-pass, ``SensingWorld.advance`` gathers
every index-array group's rows into one compact copy, runs the sub-steps on
its slices and scatters the movement columns back once; in strict mode its
``KeyedDraws`` draws every compact row's next movement block in one Philox
call up front and draws only a row's second or later block of the window
again.  None of that may move a bit.

The reference is the ``advance`` that did neither (``per_substep_advance``,
kept here; do not "modernise" it): each kernel call gathers and scatters
its group's index array, and each draws its rows' blocks in a call of its
own.  Both sides start from identical copies and are compared on bytes: the
SoA movement columns and ``moves_drawn``, the world generator and the clock,
under both RNG contracts.  The movement-call count pins the mechanism.
"""

import copy
import pickle

import numpy as np
import pytest

import repro.sensing.mobility as mobility
from repro.geometry import Rectangle
from repro.sensing import HotspotMobility, RandomWaypointMobility, SensingWorld, WorldConfig
from repro.sensing.mobility import KeyedDraws, SharedDraws, movement_substeps

from test_crowd_independence import CROWDS, COLUMNS, REGION, alternating
from test_skip_ahead import quiet_rows


def per_substep_advance(world, duration):
    """The uncompacted ``advance``: one gather/scatter and one keyed call per kernel call."""
    state = world.state_arrays
    dts = movement_substeps(duration, world.config.movement_step)
    if world.vectorized:
        draws = SharedDraws(world.rng)
    else:
        draws = KeyedDraws(world.acquisition_key)
    groups = [
        (model, model.kernel_skip_ahead(state, rows, duration))
        for model, rows in world._mobility_groups
    ]
    for dt in dts:
        for model, rows in groups:
            model.step_batch(state, rows, dt, draws)
    for dt in dts:
        world.clock.advance(dt)


def image(world):
    soa = world.state_arrays
    columns = [getattr(soa, name).tobytes() for name in COLUMNS]
    return columns, pickle.dumps(world.rng.bit_generator.state), float.hex(world.now)


def build(factory, *, vectorized, count=30, seed=17, movement_step=0.1, region=REGION):
    return SensingWorld(
        WorldConfig(
            region=region, sensor_count=count, seed=seed,
            movement_step=movement_step, vectorized_rng=vectorized,
        ),
        mobility_factory=factory,
    )


def assert_matches_oracle(world, durations, *, calls):
    """``calls`` advances of ``world`` against ``per_substep_advance`` on a copy."""
    twin = copy.deepcopy(world)
    for call in range(calls):
        duration = durations[call % len(durations)]
        world.advance(duration)
        per_substep_advance(twin, duration)
        assert image(world) == image(twin), (call, duration)


DURATIONS = (1.0, 0.25, 0.07, 2.5)
CONTRACTS = pytest.mark.parametrize("vectorized", [False, True], ids=["strict", "fast"])


@CONTRACTS
@pytest.mark.parametrize("crowd", sorted(CROWDS))
def test_advance_equals_the_per_substep_advance(crowd, vectorized):
    world = build(CROWDS[crowd](), vectorized=vectorized)
    assert_matches_oracle(world, DURATIONS, calls=16)
    assert world.state_arrays.moves_drawn.any() == (crowd != "stationary" and not vectorized)


def bouncing_walkers(region):
    """Walkers on a small region with no pause: mostly 2-3 targets per 1.0 window."""
    return RandomWaypointMobility(region, speed=0.6, pause=0.0)


SMALL = Rectangle(0.0, 0.0, 0.5, 0.5)


@CONTRACTS
def test_rows_drawing_several_targets_a_window(vectorized):
    # In strict mode every draw after a row's first of the window misses
    # the prefetched table and is drawn again, over just the missing rows.
    world = build(bouncing_walkers, vectorized=vectorized, count=40, region=SMALL)
    twin = copy.deepcopy(world)
    for call in range(12):
        before = twin.state_arrays.moves_drawn.copy()
        world.advance(1.0)
        per_substep_advance(twin, 1.0)
        assert image(world) == image(twin), call
        if not vectorized:
            rose = twin.state_arrays.moves_drawn - before
            assert np.count_nonzero(rose >= 2) > len(rose) // 2, call
            assert rose.max() >= 3, call  # a row that missed twice


@CONTRACTS
def test_interleaved_walker_groups_with_several_draws(vectorized):
    # Two index-array waypoint groups, one of which redraws within a window,
    # next to hotspot walkers that draw every sub-step: every compact group
    # misses after its first sub-step.
    factory = alternating(
        bouncing_walkers,
        lambda region: RandomWaypointMobility(region, speed=0.2, pause=0.3),
        lambda region: HotspotMobility(
            region, [(0.1, 0.1, 1.0), (0.4, 0.3, 2.0)], switch_probability=0.1
        ),
    )
    world = build(factory, vectorized=vectorized, count=31, region=SMALL)
    assert all(isinstance(rows, np.ndarray) for _, rows in world._mobility_groups)
    assert_matches_oracle(world, DURATIONS, calls=12)


@CONTRACTS
def test_a_window_where_every_walker_is_quiet(vectorized):
    # skip_ahead moves every row: the compact copy is empty and nothing is drawn.
    world = build(
        alternating(
            lambda region: RandomWaypointMobility(region, speed=0.01, pause=0.0),
            lambda region: RandomWaypointMobility(region, speed=0.02, pause=0.0),
        ),
        vectorized=vectorized, count=6,
    )
    world.advance(0.1)  # every walker holds a target now
    assert quiet_rows(world, 0.05).all()
    before = world.state_arrays.moves_drawn.copy()
    assert_matches_oracle(world, (0.05,), calls=3)
    assert world.state_arrays.moves_drawn.tobytes() == before.tobytes()


def count_movement_calls(monkeypatch):
    """Record the row count of every ``keyed_uniforms`` call ``repro.sensing.mobility`` makes."""
    calls = []
    keyed_uniforms = mobility.keyed_uniforms

    def counting(key, ids, counters, purpose):
        assert purpose == mobility.MOVEMENT
        calls.append(len(ids))
        return keyed_uniforms(key, ids, counters, purpose)

    monkeypatch.setattr(mobility, "keyed_uniforms", counting)
    return calls


def test_one_movement_call_per_strict_advance(monkeypatch):
    # crowd_strict's crowd: 2 000 waypoint walkers on the 8x8 region.
    world = build(
        lambda region: RandomWaypointMobility(region, speed=0.3, pause=0.2),
        vectorized=False, count=2000, seed=42, region=Rectangle(0.0, 0.0, 8.0, 8.0),
    )
    calls = count_movement_calls(monkeypatch)
    per_advance = []
    for call in range(31):
        before = world.state_arrays.moves_drawn.copy()
        del calls[:]
        world.advance(1.0)
        rose = world.state_arrays.moves_drawn - before
        # The first call prefetches every compact row; the rest draw only
        # the second and later blocks of a window, one call per kernel call.
        assert sum(calls[1:]) == int(np.maximum(rose - 1, 0).sum()), call
        if call:  # the first window: every walker starts without a target
            assert len(calls) == (2 if rose.max() >= 2 else 1), call
            per_advance.append(len(calls))
    assert per_advance.count(2) >= 1 and per_advance.count(1) >= 25


def test_a_sensor_moved_alone_draws_per_kernel_call(monkeypatch):
    world = build(CROWDS["hotspot"](), vectorized=False, count=3)
    calls = count_movement_calls(monkeypatch)
    world.sensors[1].move(1.0, 0.1)
    assert calls == [1] * 10
