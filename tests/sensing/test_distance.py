"""The mobility kernels' one distance spelling, pinned to IEEE arithmetic.

``_distance`` is ``sqrt(dx*dx + dy*dy)`` as three ufuncs, each one
correctly rounded operation, so it must equal the scalar Python expression
bit for bit — on every element, on every build.  It replaced libm's
``hypot`` and must stay within 1 ulp of it wherever a step can tell them
apart, and below :data:`_TINY` — where a subnormal offset squares to 0 —
send a row down the same arrive / near branch as ``hypot`` did.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry import Rectangle
from repro.sensing.mobility import _TINY, _distance

REGION = Rectangle(0.0, 0.0, 8.0, 8.0)

#: ``(x, y, target_x, target_y)`` rows on the edges a step meets: equal
#: points, a target on each wall, both region diagonals.
EDGE_ROWS = [
    (3.1, 4.7, 3.1, 4.7),
    (2.5, 3.3, REGION.x_max, 3.3),
    (2.5, 3.3, REGION.x_min, 3.3),
    (2.5, 3.3, 2.5, REGION.y_max),
    (2.5, 3.3, 2.5, REGION.y_min),
    (REGION.x_min, REGION.y_min, REGION.x_max, REGION.y_max),
    (REGION.x_max, REGION.y_min, REGION.x_min, REGION.y_max),
]

#: ``(dx, dy)`` offsets below ``_TINY``, subnormal ones among them.
TINY_OFFSETS = [
    (5e-324, 0.0),
    (0.0, -5e-324),
    (2.2e-310, 1e-200),
    (1e-160, 1e-160),
    (-3e-155, 7e-156),
    (1e-13, 0.0),
    (0.0, 0.0),
]


def scalar_distance(dx, dy):
    return math.sqrt(dx * dx + dy * dy)


def ulps(a, b):
    """The distance in ulps of two non-negative finite floats."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def offsets(rows):
    rows = np.array(rows, dtype=np.float64).reshape(-1, 4)
    return rows[:, 2] - rows[:, 0], rows[:, 3] - rows[:, 1]


def assert_bit_equal_to_scalar(dx, dy):
    got = _distance(dx, dy)
    want = np.array([scalar_distance(a, b) for a, b in zip(dx.tolist(), dy.tolist())])
    assert got.tobytes() == want.tobytes()


coordinate_x = st.floats(REGION.x_min, REGION.x_max)
coordinate_y = st.floats(REGION.y_min, REGION.y_max)
rows_in_region = st.lists(
    st.tuples(coordinate_x, coordinate_y, coordinate_x, coordinate_y), max_size=40
)


@settings(max_examples=200, deadline=None)
@given(rows_in_region)
def test_bit_equal_to_the_scalar_expression_inside_a_region(rows):
    assert_bit_equal_to_scalar(*offsets(rows + EDGE_ROWS))


def test_bit_equal_to_the_scalar_expression_on_edges_and_tiny_offsets():
    assert_bit_equal_to_scalar(*offsets(EDGE_ROWS))
    dx, dy = np.array(TINY_OFFSETS).T
    assert_bit_equal_to_scalar(dx, dy)


def test_a_large_crowd_is_bit_equal_and_within_one_ulp_of_hypot():
    rng = np.random.default_rng(39)
    rows = rng.uniform(0.0, 8.0, (20_000, 4))
    dx, dy = offsets(rows)
    assert_bit_equal_to_scalar(dx, dy)
    got = _distance(dx, dy)
    assert max(ulps(d, math.hypot(a, b)) for d, a, b in zip(got, dx, dy)) <= 1
    # The spellings do differ: that is why every seeded output moved.
    assert not np.array_equal(got, np.hypot(dx, dy))


magnitudes = st.floats(1e-150, 1e150)


@settings(max_examples=300, deadline=None)
@given(magnitudes, magnitudes, st.booleans(), st.booleans())
def test_within_one_ulp_of_hypot_from_1e_150_up(a, b, negate_a, negate_b):
    dx = np.array([-a if negate_a else a, b])
    dy = np.array([-b if negate_b else b, 0.0])
    got = _distance(dx, dy)
    assert got[0] >= 1e-150
    for d, x, y in zip(got.tolist(), dx.tolist(), dy.tolist()):
        assert ulps(d, math.hypot(x, y)) <= 1


def test_below_tiny_both_spellings_take_the_same_branch():
    dx, dy = np.array(TINY_OFFSETS).T
    ieee, libm = _distance(dx, dy), np.hypot(dx, dy)
    assert np.all(ieee < _TINY) and np.all(libm < _TINY)
    # Hotspot's ``near``, waypoint's ``arrive`` for a real stride, and the
    # ``safe`` divisor both kernels then use.
    np.testing.assert_array_equal(~(ieee > _TINY), ~(libm > _TINY))
    travel = 0.2 * 0.1
    np.testing.assert_array_equal(travel >= ieee, travel >= libm)
    np.testing.assert_array_equal(np.maximum(ieee, _TINY), np.maximum(libm, _TINY))
