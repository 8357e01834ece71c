"""The first ``advance`` after placement moves a contiguous crowd in place.

A freshly placed waypoint walker has no target, so no row of a fresh crowd
is quiet: ``RandomWaypointMobility.skip_ahead`` then hands its selector back
untouched, a contiguous group keeps its ``slice`` and ``advance`` sub-steps
it on the world's own columns instead of gathering every row into a
compact copy.  Under ``tracemalloc`` the fast-sim first window therefore
allocates less than one compact copy of the crowd would hold.  The strict
first window draws its keyed blocks per kernel call, whose Philox scratch
alone outweighs the copy, so only its bits are held here.  Both contracts
must still land on the bytes of the per-kernel-call oracle in
``test_compact_advance.py``.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from repro.geometry import Rectangle
from repro.sensing import RandomWaypointMobility, SensingWorld, WorldConfig
from repro.sensing.state import MOVEMENT_COLUMNS

from test_compact_advance import image, per_substep_advance

REGION = Rectangle(0.0, 0.0, 8.0, 8.0)
COUNT = 20_000
CONTRACTS = pytest.mark.parametrize("vectorized", [False, True], ids=["strict", "fast"])


def fresh_world(vectorized, factory=None):
    """A freshly placed crowd of ``crowd_fast``'s walkers."""
    return SensingWorld(
        WorldConfig(region=REGION, sensor_count=COUNT, seed=42, vectorized_rng=vectorized),
        mobility_factory=factory
        or (lambda region: RandomWaypointMobility(region, speed=0.3, pause=0.2)),
    )


@CONTRACTS
def test_skip_ahead_hands_a_fresh_group_its_own_selector(vectorized):
    world = fresh_world(vectorized)
    state = world.state_arrays
    before = copy.deepcopy(state)
    ((model, rows),) = world._mobility_groups
    assert rows == slice(0, COUNT)
    assert model.kernel_skip_ahead(state, rows, 1.0) is rows
    # Interleaved groups keep their index arrays, as the same objects.
    alternating = iter([0.3, 0.4] * (COUNT // 2))
    mixed = fresh_world(
        vectorized,
        lambda region: RandomWaypointMobility(region, speed=next(alternating), pause=0.2),
    )
    for model, rows in mixed._mobility_groups:
        assert isinstance(rows, np.ndarray)
        assert model.kernel_skip_ahead(mixed.state_arrays, rows, 1.0) is rows
    for name in MOVEMENT_COLUMNS:
        assert getattr(state, name).tobytes() == getattr(before, name).tobytes(), name


def test_the_first_fast_sim_advance_allocates_less_than_one_compact_copy():
    world = fresh_world(True)
    state = world.state_arrays
    compact = sum(getattr(state, name).nbytes for name in MOVEMENT_COLUMNS + ("sensor_ids",))
    tracemalloc.start()
    try:
        world.advance(1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < compact, (peak, compact)


@CONTRACTS
def test_the_first_windows_equal_the_per_kernel_call_oracle(vectorized):
    world = fresh_world(vectorized)
    twin = copy.deepcopy(world)
    for call, duration in enumerate((1.0, 0.25, 1.0)):
        world.advance(duration)
        per_substep_advance(twin, duration)
        assert image(world) == image(twin), call
    assert world.state_arrays.moves_drawn.any() == (not vectorized)
