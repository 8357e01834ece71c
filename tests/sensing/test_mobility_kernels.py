"""Bit-identity of the gather-free ``step_batch`` kernels.

The fast-sim mobility kernels work on row views and boolean masks; the
gather/scatter bodies they replaced are kept here, under ``tests/``, as the
oracle (``reference_*`` below are verbatim copies of the pre-rewrite code,
but for the distance line: ``np.sqrt(dx * dx + dy * dy)``, spelled out here
since the kernels replaced ``np.hypot`` with that IEEE spelling).
Every seeded fast-sim result in the repo — the ``tests/recovery`` goldens,
the benchmark run digests — rests on the two agreeing *exactly*: same
generator calls in the same order, same float operation order.  So the
comparison is on bytes (every mobility column, including the rows a group
does not own) plus the generator's final state, never ``allclose``.
"""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BudgetConfig, EngineConfig
from repro.core.engine import CraqrEngine
from repro.core.query import AcquisitionalQuery
from repro.geometry import Rectangle, RectRegion
from repro.recovery import EngineSnapshot
from repro.sensing import (
    HotspotMobility,
    RainField,
    RandomWaypointMobility,
    SensingWorld,
    SensorStateArrays,
    WorldConfig,
)
from repro.sensing.mobility import _TINY

from test_skip_ahead import advance_against

REGION = Rectangle(0.0, 0.0, 8.0, 8.0)

MOBILITY_COLUMNS = ("x", "y", "vx", "vy", "target_x", "target_y", "pause_remaining")


# ----------------------------------------------------------------------------
# The pre-rewrite kernels (reference; do not "modernise")
# ----------------------------------------------------------------------------


def reference_clamp(model, arrays, idx):
    region = model.region
    arrays.x[idx] = np.clip(arrays.x[idx], region.x_min, region.x_max)
    arrays.y[idx] = np.clip(arrays.y[idx], region.y_min, region.y_max)


def reference_waypoint(model, arrays, indices, dt, rng):
    idx = np.asarray(indices, dtype=np.int64)
    pause = arrays.pause_remaining[idx]
    paused = pause > 0.0
    if paused.any():
        arrays.pause_remaining[idx[paused]] = np.maximum(0.0, pause[paused] - dt)
    active = idx[~paused]
    if active.size == 0:
        return
    tx = arrays.target_x[active]
    ty = arrays.target_y[active]
    need = np.isnan(tx)
    if need.any():
        region = model.region
        count = int(need.sum())
        tx[need] = rng.uniform(region.x_min, region.x_max, count)
        ty[need] = rng.uniform(region.y_min, region.y_max, count)
    x = arrays.x[active]
    y = arrays.y[active]
    dx = tx - x
    dy = ty - y
    distance = np.sqrt(dx * dx + dy * dy)
    travel = model._speed * dt
    arrive = travel >= distance
    safe = np.maximum(distance, _TINY)
    arrays.x[active] = np.where(arrive, tx, x + travel * dx / safe)
    arrays.y[active] = np.where(arrive, ty, y + travel * dy / safe)
    arrays.target_x[active] = np.where(arrive, np.nan, tx)
    arrays.target_y[active] = np.where(arrive, np.nan, ty)
    arrays.pause_remaining[active] = np.where(arrive, model._pause, 0.0)
    reference_clamp(model, arrays, active)


def reference_hotspot(model, arrays, indices, dt, rng):
    idx = np.asarray(indices, dtype=np.int64)
    n = idx.size
    tx = arrays.target_x[idx]
    ty = arrays.target_y[idx]
    switch = np.isnan(tx) | (rng.random(n) < model._switch_probability)
    if switch.any():
        choice = rng.choice(
            len(model._hotspots), size=int(switch.sum()), p=model._weights
        )
        tx[switch] = model._hotspot_xs[choice]
        ty[switch] = model._hotspot_ys[choice]
        arrays.target_x[idx] = tx
        arrays.target_y[idx] = ty
    x = arrays.x[idx]
    y = arrays.y[idx]
    dx = tx - x
    dy = ty - y
    distance = np.sqrt(dx * dx + dy * dy)
    travel = np.minimum(model._speed * dt, distance)
    scale = np.where(distance > _TINY, travel / np.maximum(distance, _TINY), 0.0)
    jitter = rng.normal(0.0, model._jitter * math.sqrt(dt), (2, n))
    arrays.x[idx] = x + scale * dx + jitter[0]
    arrays.y[idx] = y + scale * dy + jitter[1]
    reference_clamp(model, arrays, idx)


#: name -> (model factory, reference kernel).  Parameters are picked so a
#: few hundred steps visit every branch: waypoint arrivals and pauses,
#: hotspot switches and arrivals; ``jitter`` is Gaussian steps that hit a
#: wall most sub-steps, switching hotspot every sub-step.
MODELS = {
    "waypoint": (
        lambda: RandomWaypointMobility(REGION, speed=3.0, pause=0.2),
        reference_waypoint,
    ),
    "hotspot": (
        lambda: HotspotMobility(
            REGION,
            [(1.0, 1.0, 1.0), (6.5, 7.0, 2.0), (8.0, 0.0, 0.5)],
            speed=2.5,
            jitter=0.2,
            switch_probability=0.05,
        ),
        reference_hotspot,
    ),
    "jitter": (
        lambda: HotspotMobility(
            REGION, [(0.0, 0.0, 1.0), (8.0, 8.0, 1.0)], speed=0.5, jitter=3.0,
            switch_probability=1.0,
        ),
        reference_hotspot,
    ),
}


# ----------------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------------


def fresh_arrays(total, seed):
    """A seeded SoA: spread positions, unit-ish velocities, no targets."""
    rng = np.random.default_rng(seed)
    arrays = SensorStateArrays(total)
    arrays.x[:] = rng.uniform(REGION.x_min, REGION.x_max, total)
    arrays.y[:] = rng.uniform(REGION.y_min, REGION.y_max, total)
    angle = rng.uniform(0.0, 2 * math.pi, total)
    arrays.vx[:] = np.cos(angle)
    arrays.vy[:] = np.sin(angle)
    return arrays


def column_bytes(arrays):
    return {name: getattr(arrays, name).tobytes() for name in MOBILITY_COLUMNS}


def rng_state(rng):
    return pickle.dumps(rng.bit_generator.state)


def assert_same_run(total, groups, *, steps, dt=0.1, seed=5, prepare=None):
    """Step ``groups`` on two identical SoAs — kernels vs references.

    ``groups`` is a list of ``(model name, reference indices, selector)``
    sharing one SoA and one generator per side, stepped in list order like
    ``SensingWorld.advance`` does.  Columns are compared after *every* step
    so a transient divergence that later heals is still caught.
    """
    built = [(MODELS[name][0](), MODELS[name][1], idx, sel) for name, idx, sel in groups]
    ref_arrays, new_arrays = fresh_arrays(total, seed), fresh_arrays(total, seed)
    if prepare is not None:
        prepare(ref_arrays)
        prepare(new_arrays)
    ref_rng, new_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for step in range(steps):
        for model, reference, idx, sel in built:
            reference(model, ref_arrays, idx, dt, ref_rng)
            model.step_batch(new_arrays, sel, dt, new_rng)
        assert column_bytes(new_arrays) == column_bytes(ref_arrays), f"step {step}"
    assert rng_state(new_rng) == rng_state(ref_rng)
    return new_arrays


def untouched_rows_frozen(arrays, total, owned, seed=5):
    """Rows outside ``owned`` still hold their initial bytes."""
    start = fresh_arrays(total, seed)
    others = np.setdiff1d(np.arange(total), owned)
    return all(
        getattr(arrays, name)[others].tobytes() == getattr(start, name)[others].tobytes()
        for name in MOBILITY_COLUMNS
    )


# ----------------------------------------------------------------------------
# (i)-(iv): selector shapes
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MODELS))
class TestSelectorShapes:
    def test_contiguous_group_as_slice(self, name):
        idx = np.arange(10, 70)
        arrays = assert_same_run(80, [(name, idx, slice(10, 70))], steps=300)
        assert untouched_rows_frozen(arrays, 80, idx)

    def test_contiguous_group_as_plain_index_array(self, name):
        # ``step_batch`` still accepts what tests and callers always passed.
        idx = np.arange(64)
        assert_same_run(64, [(name, idx, idx)], steps=300)
        assert_same_run(64, [(name, idx, list(range(64)))], steps=30)

    def test_strided_group(self, name):
        idx = np.arange(1, 120, 2)
        arrays = assert_same_run(120, [(name, idx, idx)], steps=300)
        assert untouched_rows_frozen(arrays, 120, idx)

    def test_interleaved_groups_share_soa_and_generator(self, name):
        # Two different models on interleaved rows, one generator: what the
        # mixed-roamer crowd of ``workloads/scenarios.py`` produces.
        other = "waypoint" if name != "waypoint" else "hotspot"
        mine, theirs = np.arange(0, 90, 3), np.setdiff1d(np.arange(90), np.arange(0, 90, 3))
        assert_same_run(90, [(name, mine, mine), (other, theirs, theirs)], steps=300)

    def test_single_row_and_empty_selector(self, name):
        assert_same_run(3, [(name, np.array([1]), np.array([1]))], steps=300)
        assert_same_run(3, [(name, np.array([1]), slice(1, 2))], steps=300)
        empty = np.array([], dtype=np.int64)
        arrays = assert_same_run(3, [(name, empty, empty)], steps=5)
        assert untouched_rows_frozen(arrays, 3, empty)
        assert_same_run(3, [(name, empty, slice(2, 2))], steps=5)


# ----------------------------------------------------------------------------
# (v): waypoint edge states
# ----------------------------------------------------------------------------


class TestWaypointEdgeStates:
    SELECTORS = [
        pytest.param(lambda n: slice(0, n), id="slice"),
        pytest.param(lambda n: np.arange(n), id="indices"),
    ]

    @pytest.mark.parametrize("selector", SELECTORS)
    def test_all_paused(self, selector):
        def pause_everyone(arrays):
            arrays.pause_remaining[:] = np.linspace(0.05, 0.9, len(arrays))

        # Nobody is active for the first steps: no draw may be consumed and
        # NaN targets must ride through silently (warnings are errors).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_run(
                40, [("waypoint", np.arange(40), selector(40))],
                steps=300, prepare=pause_everyone,
            )

    @pytest.mark.parametrize("selector", SELECTORS)
    def test_all_needing_targets(self, selector):
        # The default fresh state: every target NaN, nobody paused.
        assert_same_run(40, [("waypoint", np.arange(40), selector(40))], steps=300)

    @pytest.mark.parametrize("selector", SELECTORS)
    def test_zero_pause_model(self, selector, monkeypatch):
        factory = lambda: RandomWaypointMobility(REGION, speed=3.0, pause=0.0)  # noqa: E731
        monkeypatch.setitem(MODELS, "waypoint", (factory, reference_waypoint))
        assert_same_run(40, [("waypoint", np.arange(40), selector(40))], steps=300)

    @pytest.mark.parametrize("selector", SELECTORS)
    def test_everyone_arrives_on_the_first_step(self, selector, monkeypatch):
        factory = lambda: RandomWaypointMobility(REGION, speed=500.0, pause=0.25)  # noqa: E731
        monkeypatch.setitem(MODELS, "waypoint", (factory, reference_waypoint))
        arrays = assert_same_run(
            40, [("waypoint", np.arange(40), selector(40))], steps=1
        )
        assert np.all(arrays.pause_remaining == 0.25)
        assert np.all(np.isnan(arrays.target_x))
        assert_same_run(40, [("waypoint", np.arange(40), selector(40))], steps=300)

    @pytest.mark.parametrize("selector", SELECTORS)
    def test_targets_on_the_wall_and_on_the_sensor(self, selector):
        def wall_targets(arrays):
            n = len(arrays)
            arrays.target_x[:] = np.where(np.arange(n) % 2 == 0, REGION.x_max, REGION.x_min)
            arrays.target_y[:] = np.where(np.arange(n) % 3 == 0, REGION.y_min, REGION.y_max)
            # Zero distance (target == position) exercises the _TINY guard;
            # a paused row holding a finite target must not move either.
            arrays.x[0], arrays.y[0] = arrays.target_x[0], arrays.target_y[0]
            arrays.pause_remaining[1] = 0.35

        assert_same_run(
            40, [("waypoint", np.arange(40), selector(40))],
            steps=300, prepare=wall_targets,
        )

    def test_paused_rows_outside_the_region_are_not_clamped(self):
        # Only rows that moved are clamped (as before): a paused sensor
        # placed outside keeps its position until it walks again.
        def stray(arrays):
            arrays.x[2], arrays.pause_remaining[2] = REGION.x_max + 1.0, 0.25

        arrays = assert_same_run(
            5, [("waypoint", np.arange(5), slice(0, 5))], steps=2, prepare=stray
        )
        assert arrays.x[2] == REGION.x_max + 1.0


# ----------------------------------------------------------------------------
# Property: any (n, dt, steps, selector kind)
# ----------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(MODELS)),
    n=st.integers(min_value=0, max_value=40),
    dt=st.sampled_from([0.01, 0.1, 0.25, 1.0, 7.5]),
    steps=st.integers(min_value=1, max_value=12),
    kind=st.sampled_from(["slice", "offset-slice", "indices", "strided", "scattered"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_kernels_match_reference_for_any_selector(name, n, dt, steps, kind, seed):
    total = 2 * n + 3
    if kind == "slice":
        idx, sel = np.arange(n), slice(0, n)
    elif kind == "offset-slice":
        idx, sel = np.arange(2, 2 + n), slice(2, 2 + n)
    elif kind == "indices":
        idx = sel = np.arange(1, 1 + n)
    elif kind == "strided":
        idx = sel = np.arange(0, 2 * n, 2)
    else:
        idx = sel = np.sort(np.random.default_rng(seed).permutation(total)[:n])
    arrays = assert_same_run(
        total, [(name, idx, sel)], steps=steps, dt=dt, seed=seed
    )
    assert untouched_rows_frozen(arrays, total, idx, seed=seed)


# ----------------------------------------------------------------------------
# World level: selector resolution, snapshots
# ----------------------------------------------------------------------------


def make_world(factory, count=60, seed=9):
    return SensingWorld(
        WorldConfig(region=REGION, sensor_count=count, seed=seed, vectorized_rng=True),
        mobility_factory=factory,
    )


class TestWorldSelectors:
    def test_single_model_crowd_resolves_to_one_slice(self):
        world = make_world(lambda r: RandomWaypointMobility(r))
        ((_, rows),) = world._mobility_groups
        assert rows == slice(0, 60)

    def test_interleaved_crowd_keeps_index_arrays(self):
        created = []

        def factory(r):
            created.append(None)
            if len(created) % 3 == 0:
                return RandomWaypointMobility(r, speed=0.3, pause=0.2)
            return HotspotMobility(r, [(1.0, 1.0, 1.0)])

        world = make_world(factory)
        selectors = [rows for _, rows in world._mobility_groups]
        assert all(isinstance(rows, np.ndarray) for rows in selectors)
        assert sorted(np.concatenate(selectors).tolist()) == list(range(60))

    def test_block_crowd_resolves_each_block_to_a_slice(self):
        created = []

        def factory(r):
            created.append(None)
            if len(created) <= 25:
                return RandomWaypointMobility(r)
            return HotspotMobility(r, [(1.0, 1.0, 1.0)])

        world = make_world(factory)
        assert [rows for _, rows in world._mobility_groups] == [slice(0, 25), slice(25, 60)]

    def test_world_advance_matches_reference_kernels(self):
        # The whole dispatch: slices from the world, ten sub-steps per call —
        # for the rows ``skip_ahead`` leaves to them.  The reference
        # sub-steps every row; ``advance_against`` compares on the terms of
        # ``test_skip_ahead.py``: generator, targets, timers and every
        # sub-stepped row on bytes, skipped rows to the last bits, both
        # sides starting each call from the same bytes.
        def ten_reference_steps(twin, duration):
            model = twin.sensors[0].mobility
            for _ in range(10):
                reference_waypoint(model, twin.state_arrays, np.arange(60), 0.1, twin.rng)

        world = make_world(lambda r: RandomWaypointMobility(r, speed=3.0, pause=0.2))
        skipped = 0
        for _ in range(30):
            _, quiet = advance_against(world, 1.0, reference=ten_reference_steps)
            skipped += int(quiet.sum())
        assert 0 < skipped < 30 * 60  # both routes were compared


class TestSnapshots:
    def make_engine(self):
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=400, seed=21, vectorized_rng=True)
        )
        world.register_field(RainField(REGION))
        engine = CraqrEngine(
            EngineConfig(
                grid_cells=16, seed=4, budget=BudgetConfig(initial=60, delta=5, limit=120)
            ),
            world,
        )
        engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 8.0, 8.0), rate=20.0)
        )
        return engine

    def test_advance_adds_nothing_to_the_snapshot(self):
        # The kernels keep no scratch between calls, and a contiguous
        # group's selector is a slice: after moving, the engine snapshot is
        # smaller than the same engine carrying the pre-rewrite crowd-sized
        # index array, by about that array.
        engine = self.make_engine()
        world = engine.world
        attributes = set(vars(world))
        engine.run(3)
        assert set(vars(world)) == attributes
        ours = EngineSnapshot.capture(engine).size_bytes
        slices = world._mobility_groups
        world._mobility_groups = [(model, np.arange(400)) for model, _ in slices]
        as_parent = EngineSnapshot.capture(engine).size_bytes
        world._mobility_groups = slices
        assert 8 * 400 - 256 <= as_parent - ours <= 8 * 400 + 256

    def test_restored_world_replays_byte_identically(self):
        engine = self.make_engine()
        engine.run(2)
        restored = pickle.loads(pickle.dumps(engine.world))
        for _ in range(3):
            engine.world.advance(1.0)
            restored.advance(1.0)
        assert column_bytes(restored.state_arrays) == column_bytes(engine.world.state_arrays)
        assert rng_state(restored.rng) == rng_state(engine.world.rng)

    def test_world_restored_from_a_parent_snapshot_still_steps(self):
        # Checkpoints written before the rewrite hold index arrays in
        # ``_mobility_groups``; they take the gathered route, same bytes.
        engine = self.make_engine()
        old_style = pickle.loads(pickle.dumps(engine.world))
        old_style._mobility_groups = [
            (model, np.arange(400)) for model, _ in old_style._mobility_groups
        ]
        engine.world.advance(2.0)
        old_style.advance(2.0)
        assert column_bytes(old_style.state_arrays) == column_bytes(engine.world.state_arrays)
