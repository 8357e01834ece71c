"""Fast-sim ``advance`` sub-steps only the rows something happens to.

``SensingWorld.advance`` asks every kernel group once, before the movement
sub-steps, to ``skip_ahead``: a waypoint walker that cannot reach its target
within the window is moved in one stride, and only the remaining rows are
sub-stepped.  The ``advance`` it replaced — every group stepped full-width
in every sub-step — is kept here as the reference (``full_width_advance``).

What must agree *exactly* is everything discrete: the shared generator's
state (the pre-pass draws nothing and the sub-step loop is still step-major,
so draws land on the same rows in the same order, also in mixed crowds),
every target, every pause timer, and the position bytes of every row that
was sub-stepped.  A skipped ("quiet") row took one step of ``duration``
instead of the composed sub-steps: it may differ in the last bits only, must
stay inside the region, and must be a row nothing happened to in the
reference.  Both sides start every ``advance`` from identical bytes, so
rounding never accumulates into the comparison.
"""

import copy
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Rectangle
from repro.sensing import (
    HotspotMobility,
    RandomWaypointMobility,
    SensingWorld,
    WorldConfig,
)

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


def hotspot(region):
    """Walkers that draw in every sub-step and have no ``skip_ahead`` of their own."""
    return HotspotMobility(region, [(1.0, 1.0, 1.0), (3.0, 2.5, 2.0)])

#: A quiet row's distance from the reference: one rounding per sub-step of a
#: coordinate below 8 is ≈1e-15 a step; 1e-12 is the bound fixed beforehand.
QUIET_TOLERANCE = 1e-12


def full_width_advance(world, duration):
    """The pre-``skip_ahead`` fast-sim ``advance`` (reference; do not "modernise")."""
    dts = []
    remaining = duration
    step = world.config.movement_step
    while remaining > 1e-12:
        dt = min(step, remaining)
        dts.append(dt)
        remaining -= dt
    for dt in dts:
        for model, rows in world._mobility_groups:
            model.step_batch(world.state_arrays, rows, dt, world.rng)
    for dt in dts:
        world.clock.advance(dt)


def rng_state(rng):
    return pickle.dumps(rng.bit_generator.state)


def quiet_rows(world, duration):
    """Rows ``advance(duration)`` will skip, asked of a copy (the hook is draw-free)."""
    probe = copy.deepcopy(world.state_arrays)
    quiet = np.ones(len(probe), dtype=bool)
    for model, rows in world._mobility_groups:
        rest = model.kernel_skip_ahead(probe, rows, duration)
        if isinstance(rest, slice):
            rest = np.arange(*rest.indices(quiet.size))
        assert np.all(np.diff(rest) > 0), "the returned selector must be ascending"
        quiet[rest] = False
    return quiet


def advance_against(world, duration, reference=full_width_advance):
    """``world.advance`` vs ``reference`` on an identical copy; returns ``(twin, quiet)``.

    Asserts the whole contract of the module docstring.  ``twin`` is the
    copy the reference advanced, for callers with more to compare.
    """
    twin = copy.deepcopy(world)
    quiet = quiet_rows(world, duration)
    before = copy.deepcopy(world.state_arrays)
    world.advance(duration)
    reference(twin, duration)
    ours, theirs = world.state_arrays, twin.state_arrays

    assert rng_state(world.rng) == rng_state(twin.rng)
    for name in ("target_x", "target_y", "pause_remaining"):
        # tobytes() compares NaN targets by their bits.
        assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes(), name
    stepped = ~quiet
    for name in ("x", "y"):
        mine, reference_column = getattr(ours, name), getattr(theirs, name)
        assert mine[stepped].tobytes() == reference_column[stepped].tobytes(), name
        assert np.all(np.abs(mine[quiet] - reference_column[quiet]) <= QUIET_TOLERANCE), name
    region = world.region
    assert np.all((ours.x[quiet] >= region.x_min) & (ours.x[quiet] <= region.x_max))
    assert np.all((ours.y[quiet] >= region.y_min) & (ours.y[quiet] <= region.y_max))
    # Nothing happened to a quiet row in the reference: it kept the target it
    # had (an arrival clears it, a redraw changes it) and never paused.
    assert theirs.target_x[quiet].tobytes() == before.target_x[quiet].tobytes()
    assert theirs.target_y[quiet].tobytes() == before.target_y[quiet].tobytes()
    assert not np.isnan(before.target_x[quiet]).any()
    assert not before.pause_remaining[quiet].any()
    assert not theirs.pause_remaining[quiet].any()
    return twin, quiet


def make_world(factory, *, count=200, seed=11, movement_step=0.1):
    return SensingWorld(
        WorldConfig(
            region=REGION, sensor_count=count, seed=seed,
            movement_step=movement_step, vectorized_rng=True,
        ),
        mobility_factory=factory,
    )


def waypoint(speed=0.3, pause=0.2):
    return lambda region: RandomWaypointMobility(region, speed=speed, pause=pause)


def alternating(*factories):
    """Sensor ``i`` gets ``factories[i % len(factories)]``: interleaved groups."""
    created = []

    def factory(region):
        created.append(None)
        return factories[(len(created) - 1) % len(factories)](region)

    return factory


def run(world, *, calls=30, duration=1.0):
    """``calls`` advances under the contract; returns the quiet share of row-advances."""
    quiet_total = 0
    for _ in range(calls):
        _, quiet = advance_against(world, duration)
        quiet_total += int(quiet.sum())
    return quiet_total / (calls * len(world.state_arrays))


class TestSelectors:
    def test_single_model_crowd_as_a_slice(self):
        world = make_world(waypoint())
        ((_, rows),) = world._mobility_groups
        assert isinstance(rows, slice)
        # At speed 0.3 most walkers are further than 0.3 from their target.
        assert run(world) > 0.6

    def test_interleaved_waypoint_groups_as_index_arrays(self):
        world = make_world(alternating(waypoint(0.3, 0.2), waypoint(0.5, 0.0)))
        assert all(isinstance(rows, np.ndarray) for _, rows in world._mobility_groups)
        assert run(world) > 0.5

    def test_mixed_crowd_keeps_the_step_major_draw_order(self):
        # The hotspot group draws in every sub-step, between the waypoint
        # group's draws.  advance_against holds the stream state equal and
        # the hotspot rows (never quiet: the base hook skips nothing)
        # byte-equal, which only a step-major loop over both groups gives.
        world = make_world(alternating(waypoint(), hotspot, waypoint()))
        hotspot_rows = np.arange(1, 200, 3)
        skipped = 0
        for _ in range(30):
            _, quiet = advance_against(world, 1.0)
            assert not quiet[hotspot_rows].any()
            skipped += int(quiet.sum())
        assert skipped > 0.4 * 30 * 200


class TestWindows:
    def test_fast_walkers_are_nearly_all_eventful(self):
        # Travel 3.0 per window on a 4x4 region: the hook skips almost
        # nobody, hands back (nearly) the whole group as an index array.
        assert run(make_world(waypoint(speed=3.0))) < 0.1

    def test_zero_pause(self):
        assert run(make_world(waypoint(pause=0.0))) > 0.6

    def test_pause_longer_than_the_window(self):
        world = make_world(waypoint(speed=1.0, pause=2.5))
        run(world)
        assert (world.state_arrays.pause_remaining > 1.0).any()

    @pytest.mark.parametrize("duration", [0.04, 0.25, 0.07, 2.5])
    def test_windows_that_are_not_ten_sub_steps(self, duration):
        # 0.04: shorter than movement_step (one fractional sub-step).
        run(make_world(waypoint()), duration=duration)

    def test_coarse_and_fine_movement_steps(self):
        run(make_world(waypoint(), movement_step=0.5), calls=10)
        run(make_world(waypoint(), movement_step=0.03), calls=10)


class TestEdgeRows:
    def test_row_on_its_target_and_paused_row_with_a_stale_target(self):
        world = make_world(waypoint(), count=20)
        world.advance(1.0)  # everyone has a target now
        soa = world.state_arrays
        soa.x[0], soa.y[0] = soa.target_x[0], soa.target_y[0]  # zero distance
        soa.pause_remaining[1] = 0.35  # pausing, yet holding a far target
        soa.target_x[1], soa.target_y[1] = 3.9, 3.9
        soa.x[1], soa.y[1] = 0.1, 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quiet = quiet_rows(world, 1.0)
            assert not quiet[0] and not quiet[1]
            advance_against(world, 1.0)

    def test_fresh_world_has_no_targets_and_nobody_is_quiet(self):
        world = make_world(waypoint(), count=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not quiet_rows(world, 1.0).any()
            advance_against(world, 1.0)


class PerRowSpeed(RandomWaypointMobility):
    """A kernel of its own (odd rows walk twice as fast), no ``skip_ahead`` of its own."""

    def batch_key(self):
        return self._kernel_key(self._speed, self._pause)

    def step_batch(self, arrays, indices, dt, rng):
        rows = np.arange(len(arrays))[indices]
        super().step_batch(arrays, rows, dt, rng)
        super().step_batch(arrays, rows[rows % 2 == 1], dt, rng)


class TestInheritedHookIsNotUsed:
    def test_subclass_with_its_own_kernel_is_sub_stepped_full_width(self):
        # RandomWaypointMobility.skip_ahead would move most of these rows by
        # the parent's speed; the world must not let it.
        world = make_world(lambda region: PerRowSpeed(region, speed=0.3, pause=0.2))
        model = world.sensors[0].mobility
        assert model.kernel_skip_ahead(world.state_arrays, slice(0, 200), 1.0) == slice(0, 200)
        for _ in range(10):
            _, quiet = advance_against(world, 1.0)
            assert not quiet.any()  # so every column is byte-equal
        # ... whereas the inherited hook, called directly, does skip rows.
        rest = model.skip_ahead(copy.deepcopy(world.state_arrays), slice(0, 200), 1.0)
        assert rest.size < 200

    def test_subclass_defining_both_uses_its_own_hook(self):
        class Cautious(PerRowSpeed):
            def step_batch(self, arrays, indices, dt, rng):
                super().step_batch(arrays, indices, dt, rng)

            def skip_ahead(self, arrays, indices, duration):
                return np.arange(indices.start, indices.stop, 2)

        model = Cautious(REGION)
        rest = model.kernel_skip_ahead(None, slice(0, 6), 1.0)
        assert rest.tolist() == [0, 2, 4]


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    speed=st.sampled_from([0.05, 0.3, 1.0, 3.0, 40.0]),
    pause=st.sampled_from([0.0, 0.05, 0.2, 1.5]),
    duration=st.sampled_from([0.04, 0.1, 0.25, 1.0, 1.05, 3.0]),
    movement_step=st.sampled_from([0.03, 0.1, 0.5]),
    mixed=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_contract_holds_for_any_crowd_and_window(
    n, speed, pause, duration, movement_step, mixed, seed
):
    factory = waypoint(speed, pause)
    if mixed:
        factory = alternating(factory, hotspot)
    world = make_world(factory, count=n, seed=seed, movement_step=movement_step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(6):
            advance_against(world, duration)
