"""Property tests pinning the estimation kernels to their references.

``OnlineIntensityEstimator.observe_batch_fused`` (the SGD kernel) must
land on exactly the bits of ``observe_batch`` (n x ``observe_event``).
The engine runs it as ``observe_segments``, every online chain's batch in
lockstep; the plain-float loop that preceded it is kept here, and every
segment must land on its bits.  ``fit_linear_intensity_mle``
(damped Newton) is held to its own certificate — a feasible theta with a
Newton decrement within tolerance is the global maximum — and to SciPy's
L-BFGS-B, the solver it replaced, kept here, under ``tests/``, as an
oracle started from the quadrat least-squares theta.  The engine runs it as
``fit_linear_intensity_mle_segments``, many fits in lockstep; the per-fit
Newton body that preceded it is kept here too, and every segment must
land on its bits.
"""

import pathlib
import subprocess
import sys
import tracemalloc
from itertools import accumulate
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from repro.core.pmat import FlattenOperator
from repro.errors import EstimationError
from repro.geometry import CompositeRegion, Rectangle, RectRegion, as_region
from repro.pointprocess import (
    EstimationResult,
    EventBatch,
    LinearIntensity,
    OnlineIntensityEstimator,
    fit_linear_intensity_mle,
    fit_linear_intensity_mle_segments,
    observe_segments,
)
from repro.pointprocess import estimation
from repro.pointprocess.estimation import (
    _ARMIJO,
    _BOUNDARY_FRACTION,
    _MAX_HALVINGS,
    _NEWTON_MAX_ITERATIONS,
    _NEWTON_TOLERANCE,
    _RATE_FLOOR,
    _linear_rate,
    _solve_spd_4x4,
    _window_centroid,
)
from repro.streams import SensorTuple
from scaffolding import batch_of

UNIT = Rectangle(0.0, 0.0, 1.0, 1.0)


def bits(values) -> bytes:
    """Exact float64 identity (NaN == NaN, -0.0 != 0.0)."""
    return np.asarray(values, dtype=float).tobytes()


def columns(t, x, y):
    """A batch the kernels read as it is: ``t``, ``x`` and ``y`` untouched,
    whatever their dtype or strides (an :class:`EventBatch` converts)."""
    return SimpleNamespace(t=t, x=x, y=y)


def laid_out(pieces, rng, *, batches=2, dtype=np.float64):
    """``pieces`` of ``(t, x, y)`` rows scattered over ``batches`` batches.

    Each piece lands in a random batch after 0-3 rows no segment covers
    (NaN times: inside a segment they would unsort it), so segments share
    batches, leave rows out and come in no batch order.  Returns the
    batches, their columns cast to ``dtype``, and the segment table
    ``(batch, start, stop)``, one entry per piece in order.
    """
    parts = [([], [], []) for _ in range(batches)]
    sizes = [0] * batches
    table = []
    for piece in pieces:
        b = int(rng.integers(batches))
        junk = int(rng.integers(4))
        fillers = (np.full(junk, np.nan), rng.random(junk), rng.random(junk))
        for part, filler, rows in zip(parts[b], fillers, piece):
            part.extend((filler, rows))
        table.append((b, sizes[b] + junk, sizes[b] + junk + len(piece[0])))
        sizes[b] += junk + len(piece[0])
    held = [
        columns(*(np.concatenate([np.empty(0), *part]).astype(dtype) for part in each))
        for each in parts
    ]
    return held, table


# ----------------------------------------------------------------------------
# SGD kernel == n x observe_event
# ----------------------------------------------------------------------------

#: Quarter-step times tie often (the stable sort must keep arrival order);
#: free floats cover the rest.
event_times = st.one_of(
    st.integers(min_value=0, max_value=8).map(lambda k: k / 4.0),
    st.floats(min_value=0.0, max_value=2.0),
)
unit_coordinates = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def sgd_batches(draw):
    """One batch plus how to present it: order, dtype, slicing, window anchor.

    The kernel skips its sort on rows already in time order (the engine's
    map phase sorts them), so the rows come as drawn, shuffled, already
    sorted (ties in drawn order) or all on one tied time.
    """
    rows = draw(
        st.lists(st.tuples(event_times, unit_coordinates, unit_coordinates), max_size=25)
    )
    order = draw(st.sampled_from(["drawn", "shuffled", "sorted", "tied"]))
    if order == "shuffled":
        rows = draw(st.permutations(rows))
    elif order == "sorted":
        rows = sorted(rows, key=lambda row: row[0])
    elif order == "tied" and rows:
        rows = [(rows[0][0], x, y) for _t, x, y in rows]
    offset = draw(st.sampled_from([0.0, 10.0, 1000.0]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    t, x, y = (
        np.array([row[axis] for row in rows], dtype=dtype) for axis in range(3)
    )
    t += offset
    if draw(st.booleans()):
        # Non-contiguous views: every other element of a doubled column.
        t, x, y = (np.repeat(column, 2)[::2] for column in (t, x, y))
    batch = EventBatch(t, x, y)
    window_start = draw(st.sampled_from([None, offset, offset - 0.5]))
    return batch, window_start


@st.composite
def initial_thetas(draw):
    """Ordinary starts, and starts that sit on (or below) the rate floor."""
    if draw(st.booleans()):
        return (1.0, 0.0, 0.0, 0.0)
    return (
        draw(st.sampled_from([-5.0, 0.0, 1e-9])),
        draw(st.sampled_from([0.0, -1.0])),
        0.0,
        draw(st.sampled_from([0.0, -2.0])),
    )


#: ``float.hex`` of theta after the three seeded batches below.
PINNED_THETA = [
    "0x1.352e2cb4d6acep+1",
    "0x1.137f38693b753p+0",
    "0x1.83b4c05651bc6p+0",
    "0x1.bb203ec98f4dbp-2",
]


class TestSgdKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(sgd_batches(), min_size=1, max_size=4),
        initial_thetas(),
        st.sampled_from([0.05, 0.3, 2.0]),
    )
    def test_kernel_is_the_per_event_reference_exactly(
        self, batches, initial_theta, learning_rate
    ):
        def estimator():
            return OnlineIntensityEstimator(
                UNIT, 1.0, learning_rate=learning_rate, initial_theta=initial_theta
            )

        reference, kernel = estimator(), estimator()
        for batch, window_start in batches:
            reference.observe_batch(batch, window_start=window_start)
            kernel.observe_batch_fused(batch, window_start=window_start)
            assert bits(kernel._theta) == bits(reference._theta)
            assert kernel.updates == reference.updates
            assert kernel._events_in_window == reference._events_in_window
            assert kernel._theta.dtype == np.float64
            assert kernel._theta.shape == (4,)

    def test_single_event_on_the_rate_floor(self):
        # theta (0, 0, 0, 0) puts the rate exactly on the floor: one step of
        # size lr * (features / 1e-8 - compensator).
        reference = OnlineIntensityEstimator(UNIT, 1.0, initial_theta=(0.0,) * 4)
        kernel = OnlineIntensityEstimator(UNIT, 1.0, initial_theta=(0.0,) * 4)
        batch = EventBatch.from_rows([(0.25, 0.5, 0.75)])
        reference.observe_batch(batch)
        kernel.observe_batch_fused(batch)
        assert kernel.updates == 1
        assert kernel.theta[0] > 1e5
        assert bits(kernel._theta) == bits(reference._theta)

    def test_nan_rate_is_not_floored(self):
        # max(nan, floor) keeps the NaN; the kernel's comparison must too.
        start = (float("nan"), 0.0, 0.0, 0.0)
        reference = OnlineIntensityEstimator(UNIT, 1.0, initial_theta=start)
        kernel = OnlineIntensityEstimator(UNIT, 1.0, initial_theta=start)
        batch = EventBatch.from_rows([(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)])
        reference.observe_batch(batch)
        kernel.observe_batch_fused(batch)
        assert np.isnan(kernel._theta).all()
        assert bits(kernel._theta) == bits(reference._theta)

    def test_pinned_theta_after_three_seeded_batches(self):
        # The online path's golden: full-precision theta, so a numpy/BLAS
        # build (or an edit) that changes one rounding anywhere in the
        # recurrence fails here on every CI python.
        rng = np.random.default_rng(20150413)
        estimator = OnlineIntensityEstimator(
            Rectangle(0.0, 0.0, 2.0, 1.0), 1.0, learning_rate=0.2
        )
        for k in range(3):
            n = 40 + 15 * k
            batch = EventBatch(
                k + rng.random(n), 2.0 * rng.random(n), rng.random(n) ** 2
            )
            estimator.observe_batch_fused(batch, window_start=float(k))
        assert estimator.updates == 165
        assert [v.hex() for v in estimator.theta] == PINNED_THETA


# ----------------------------------------------------------------------------
# Lockstep SGD == the plain-float loop, per segment
# ----------------------------------------------------------------------------


def sgd_loop_alone(self, batch, window_start=None):
    """``observe_batch_fused`` before the lockstep: the plain-float loop.

    Kept verbatim (``self`` is the estimator): every step is the IEEE
    operations ``observe_event`` performs on 4-element arrays, on eight
    float locals.
    """
    if batch.is_empty:
        return
    if window_start is None:
        window_start = float(np.min(batch.t))
    self._events_in_window = 0.7 * self._events_in_window + 0.3 * len(batch)
    # Rows the map phase already sorted skip the stable argsort, which
    # is the identity on a non-decreasing column, ties included.
    t = batch.t
    ordered = batch if (t[1:] >= t[:-1]).all() else batch.sorted_by_time()
    n = len(ordered)
    c0, c1, c2, c3 = self._per_event_compensator(window_start).tolist()
    steps = self._learning_rate / np.sqrt(
        np.arange(self._updates + 1, self._updates + n + 1, dtype=np.int64)
    )
    theta0, theta1, theta2, theta3 = self._theta.tolist()
    for t, x, y, step in zip(
        ordered.t.tolist(), ordered.x.tolist(), ordered.y.tolist(), steps.tolist()
    ):
        # _linear_rate, written out: same operands, same order.
        rate = ((theta0 + t * theta1) + x * theta2) + y * theta3
        if rate < _RATE_FLOOR:  # a NaN rate stays NaN, as max(rate, floor) keeps it
            rate = _RATE_FLOOR
        theta0 = theta0 + step * (1.0 / rate - c0)
        theta1 = theta1 + step * (t / rate - c1)
        theta2 = theta2 + step * (x / rate - c2)
        theta3 = theta3 + step * (y / rate - c3)
    self._updates += n
    self._theta = np.array([theta0, theta1, theta2, theta3])


#: Starts in the ordinary range, on the rate floor (rate 0 at every event),
#: below it, NaN, and so large that the rate overflows: ``t * 1e308`` is
#: inf once ``t > 1.8``, and where ``y > 1.8`` too the rate is
#: ``inf - inf``, a NaN that is not the start's.
SGD_THETAS = {
    "flat": (1.0, 0.0, 0.0, 0.0),
    "floor": (0.0, 0.0, 0.0, 0.0),
    "below": (-5.0, -1.0, 0.0, -2.0),
    "nan": (float("nan"), 0.0, 0.0, 0.0),
    "overflow": (1e308, 1e308, 0.0, -1e308),
}


@st.composite
def sgd_segments(draw):
    """One estimator's set-up and its batch: ``(options, updates, t, x, y, window_start)``.

    Rows are in time order (as the map phase hands them over), as drawn
    (out of order) or on one tied time; quarter-step times tie often.
    ``y`` spans ``[0, 3)``, so the overflowing start meets ``inf - inf``.
    """
    n = draw(st.one_of(st.sampled_from([1, 2, 300]), st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 10.0, 1000.0]))
    if draw(st.booleans()):
        t = np.floor(8.0 * rng.random(n)) / 4.0
    else:
        t = 2.0 * rng.random(n)
    order = draw(st.sampled_from(["sorted", "drawn", "tied"]))
    if order == "sorted":
        t = np.sort(t)
    elif order == "tied":
        t = np.full(n, t[0])
    theta = draw(st.sampled_from([*sorted(SGD_THETAS), "random"]))
    options = dict(
        region=draw(st.sampled_from([UNIT, Rectangle(-3.0, 2.0, 0.5, 2.7)])),
        window_duration=draw(st.sampled_from([1.0, 0.25])),
        learning_rate=draw(st.sampled_from([0.05, 0.3, 2.0])),
        initial_theta=rng.normal(0.0, 3.0, 4) if theta == "random" else SGD_THETAS[theta],
        expected_events_per_window=draw(st.sampled_from([0.5, 1.0, 50.0, 1e4])),
    )
    updates = draw(st.sampled_from([0, 1, 39, 10**6]))
    window_start = draw(st.sampled_from([None, offset, offset - 0.5]))
    return options, updates, offset + t, rng.random(n), 3.0 * rng.random(n), window_start


def sgd_estimator(options, updates):
    estimator = OnlineIntensityEstimator(
        options["region"],
        options["window_duration"],
        learning_rate=options["learning_rate"],
        initial_theta=options["initial_theta"],
        expected_events_per_window=options["expected_events_per_window"],
    )
    estimator._updates = updates
    return estimator


def sgd_state(estimator):
    """What a batch changes, exactly: theta's bytes (NaN payload included)."""
    return (estimator._theta.tobytes(), estimator._updates, estimator._events_in_window)


class TestLockstepSgd:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(sgd_segments(), min_size=1, max_size=40),
        st.sampled_from([np.float64, np.float32]),
        st.booleans(),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_every_segment_is_its_loop_alone(self, segments, dtype, sliced, batches, seed):
        # The segments lie in one to three batches, among rows none covers.
        held, table = laid_out(
            [segment[2:5] for segment in segments], np.random.default_rng(seed),
            batches=batches, dtype=dtype,
        )
        if sliced:
            # Non-contiguous views: every other element of a doubled column.
            held = [
                columns(*(np.repeat(column, 2)[::2] for column in (each.t, each.x, each.y)))
                for each in held
            ]
        alone = []
        for (options, updates, *_rows, window_start), (b, a, z) in zip(segments, table):
            estimator = sgd_estimator(options, updates)
            rows = held[b]
            sgd_loop_alone(estimator, EventBatch(rows.t[a:z], rows.x[a:z], rows.y[a:z]), window_start)
            alone.append(sgd_state(estimator))
        together = [sgd_estimator(options, updates) for options, updates, *_rest in segments]
        observe_segments(together, held, table, [segment[5] for segment in segments])
        assert [sgd_state(estimator) for estimator in together] == alone
        for estimator in together:
            assert estimator._theta.dtype == np.float64 and estimator._theta.shape == (4,)
            assert estimator._theta.flags.owndata  # never a view into the block

    def test_the_layout_covers_every_outcome(self):
        # NaN and overflowing starts end in a NaN theta next to finite
        # neighbours; the floor start takes a giant first step.
        rng = np.random.default_rng(7)
        t, x, y = 10.0 + rng.random(20), rng.random(20), 2.0 + rng.random(20)
        names = sorted(SGD_THETAS)
        estimators = [OnlineIntensityEstimator(UNIT, 1.0, initial_theta=SGD_THETAS[name]) for name in names]
        observe_segments(estimators, [EventBatch(t, x, y)], [(0, 0, 20)] * 5, [None] * 5)
        ends = dict(zip(names, estimators))
        for name, estimator in ends.items():
            alone = OnlineIntensityEstimator(UNIT, 1.0, initial_theta=SGD_THETAS[name])
            sgd_loop_alone(alone, EventBatch(t, x, y))
            assert sgd_state(estimator) == sgd_state(alone), name
        assert np.isnan(ends["nan"]._theta).all() and np.isnan(ends["overflow"]._theta).all()
        assert ends["nan"]._theta.tobytes() != ends["overflow"]._theta.tobytes()
        assert np.isfinite(ends["flat"]._theta).all() and np.isfinite(ends["below"]._theta).all()
        assert ends["floor"]._theta[0] > 1e5

    def test_one_segment_is_observe_batch_fused(self):
        rng = np.random.default_rng(20150413)
        batch = EventBatch(5.0 + rng.random(90), rng.random(90), rng.random(90))
        states = []
        for observe in (
            lambda e: e.observe_batch_fused(batch, window_start=4.5),
            lambda e: observe_segments([e], [batch], [(0, 0, 90)], [4.5]),
            lambda e: sgd_loop_alone(e, batch, 4.5),
        ):
            estimator = OnlineIntensityEstimator(UNIT, 1.0, learning_rate=0.2)
            observe(estimator)
            observe(estimator)
            states.append(sgd_state(estimator))
        assert states[0] == states[1] == states[2]

    def test_empty_segments_leave_their_estimators_alone(self):
        rng = np.random.default_rng(3)
        t, x, y = rng.random(30), rng.random(30), rng.random(30)
        estimators = [OnlineIntensityEstimator(UNIT, 1.0) for _ in range(4)]
        untouched = sgd_state(estimators[0])
        # Segments 0 and 2 are empty; 1 and 3 split the rows.
        observe_segments(
            estimators, [columns(t, x, y)], [(0, 0, 0), (0, 0, 12), (0, 12, 12), (0, 12, 30)], [None] * 4
        )
        assert sgd_state(estimators[0]) == sgd_state(estimators[2]) == untouched
        for estimator, (a, b) in zip(estimators[1::2], [(0, 12), (12, 30)]):
            expected = OnlineIntensityEstimator(UNIT, 1.0)
            sgd_loop_alone(expected, EventBatch(t[a:b], x[a:b], y[a:b]))
            assert sgd_state(estimator) == sgd_state(expected)
        observe_segments([], [], [], [])

    @pytest.mark.parametrize("starts, window_starts", [([0, 5], [None]), ([0], [None, None])])
    def test_invalid_layouts_raise(self, starts, window_starts):
        estimators = [OnlineIntensityEstimator(UNIT, 1.0)]
        table = [(0, a, z) for a, z in zip(starts, [*starts[1:], 9])]
        with pytest.raises(EstimationError, match="one segment and one window start"):
            observe_segments(estimators, [columns(*np.zeros((3, 9)))], table, window_starts)


class TestLockstepWriteBack:
    def test_the_set_up_goes_back_as_python_numbers(self):
        # The checkpoint allow-list admits no numpy scalar: the averages
        # computed as one column go back as floats, the counts as ints,
        # from an integer prior and from a float one alike.
        rng = np.random.default_rng(11)
        t = np.sort(rng.random(50))
        estimators = [
            OnlineIntensityEstimator(UNIT, 1.0, expected_events_per_window=prior)
            for prior in (50, 0.5, 7.25)
        ]
        observe_segments(
            estimators, [columns(t, rng.random(50), rng.random(50))],
            [(0, 0, 20), (0, 20, 20), (0, 20, 50)], [None, 0.0, None],
        )
        for estimator in estimators:
            assert type(estimator._events_in_window) is float
            assert type(estimator._updates) is int
        assert [estimator._updates for estimator in estimators] == [20, 0, 30]


# ----------------------------------------------------------------------------
# Where the L-BFGS-B oracle starts: the quadrat least-squares theta
# ----------------------------------------------------------------------------


def least_squares_by_box_loop(batch, region, t_start, t_end, bins=4):
    """Quadrat-count least-squares theta: where :func:`mle_by_lbfgsb` starts.

    The window is cut into ``bins`` boxes per axis, and theta is the ordinary
    least-squares fit of each box's empirical rate against its centre.  One
    pass over every ``(t, x, y)`` box, six full-length comparisons and one
    overlap computation each.
    """
    bbox = region.bounding_box
    t_edges = np.linspace(t_start, t_end, bins + 1)
    x_edges = np.linspace(bbox.x_min, bbox.x_max, bins + 1)
    y_edges = np.linspace(bbox.y_min, bbox.y_max, bins + 1)
    rows, targets = [], []
    for ti in range(bins):
        for xi in range(bins):
            for yi in range(bins):
                cell = Rectangle(x_edges[xi], y_edges[yi], x_edges[xi + 1], y_edges[yi + 1])
                cell_area = region.overlap_area(RectRegion(cell))
                if cell_area <= 0:
                    continue
                duration = t_edges[ti + 1] - t_edges[ti]
                in_cell = (
                    (batch.t >= t_edges[ti])
                    & (batch.t < t_edges[ti + 1])
                    & (batch.x >= x_edges[xi])
                    & (batch.x < x_edges[xi + 1])
                    & (batch.y >= y_edges[yi])
                    & (batch.y < y_edges[yi + 1])
                )
                count = int(np.count_nonzero(in_cell))
                rows.append(
                    [
                        1.0,
                        0.5 * (t_edges[ti] + t_edges[ti + 1]),
                        0.5 * (x_edges[xi] + x_edges[xi + 1]),
                        0.5 * (y_edges[yi] + y_edges[yi + 1]),
                    ]
                )
                targets.append(count / (cell_area * duration))
    if len(rows) < 4:
        raise EstimationError("not enough occupied quadrats to fit four parameters")
    theta, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(targets), rcond=None)
    return theta


#: A rectangle, an L whose bounding box has an empty corner, and two
#: diagonal squares whose bounding box is half empty.
REGIONS = [
    RectRegion(Rectangle(0.0, 0.0, 1.0, 1.0)),
    RectRegion(Rectangle(-3.0, 2.0, 0.5, 2.7)),
    CompositeRegion((Rectangle(0.0, 0.0, 2.0, 1.0), Rectangle(0.0, 1.0, 1.0, 2.0))),
    CompositeRegion((Rectangle(0.0, 0.0, 1.0, 1.0), Rectangle(1.0, 1.0, 2.0, 2.0))),
]


# ----------------------------------------------------------------------------
# Newton MLE: its certificate, its oracle, its bytes
# ----------------------------------------------------------------------------


def window_centre(region, t_start, t_end):
    """``(volume, (t_mid, cx, cy))`` of the window, computed independently."""
    area = sum(r.area for r in region.rectangles)
    cx = sum(0.5 * (r.x_min + r.x_max) * r.area for r in region.rectangles) / area
    cy = sum(0.5 * (r.y_min + r.y_max) * r.area for r in region.rectangles) / area
    return area * (t_end - t_start), (0.5 * (t_start + t_end), cx, cy)


def certificate(theta, batch, region, t_start, t_end):
    """``(min rate, Newton decrement, log-likelihood)`` of ``theta``.

    Recomputed with numpy's linear algebra on window-centred features; the
    log-likelihood is the unclamped one, ``-inf`` at an infeasible theta.
    """
    volume, (t_mid, cx, cy) = window_centre(region, t_start, t_end)
    features = np.column_stack(
        [np.ones(len(batch)), batch.t - t_mid, batch.x - cx, batch.y - cy]
    )
    phi = np.array(
        [theta[0] + theta[1] * t_mid + theta[2] * cx + theta[3] * cy, *theta[1:]]
    )
    rate = features @ phi
    if rate.min() <= 0:
        return rate.min(), np.inf, -np.inf
    scaled = features / rate[:, None]
    gradient = scaled.sum(axis=0) - np.array([volume, 0.0, 0.0, 0.0])
    decrement = gradient @ np.linalg.solve(scaled.T @ scaled, gradient)
    return rate.min(), decrement, float(np.log(rate).sum() - volume * phi[0])


def mle_by_lbfgsb(batch, region, t_start, t_end):
    """The fit as it was before the Newton solver: the oracle.

    SciPy's L-BFGS-B on the floor-clamped likelihood, started from
    :func:`least_squares_by_box_loop` (the flat rate when that fails).  Returns
    ``(theta, success)``; ``success`` is false whenever the start has a
    non-positive rate at some event (the clamp breaks the line search).
    """
    volume, centre = window_centre(region, t_start, t_end)
    try:
        start = least_squares_by_box_loop(batch, region, t_start, t_end)
    except EstimationError:
        start = np.array([len(batch) / volume, 0.0, 0.0, 0.0])
    design = np.column_stack([np.ones(len(batch)), batch.t, batch.x, batch.y])
    basis_integrals = volume * np.array([1.0, *centre])

    def negative_log_likelihood(theta):
        rates = np.maximum(design @ theta, _RATE_FLOOR)
        return float(basis_integrals @ theta - np.log(rates).sum())

    def gradient(theta):
        rates = np.maximum(design @ theta, _RATE_FLOOR)
        return basis_integrals - design.T @ (1.0 / rates)

    result = optimize.minimize(
        negative_log_likelihood, start, jac=gradient, method="L-BFGS-B",
        options={"maxiter": 200},
    )
    return result.x, bool(result.success)


@st.composite
def mle_fits(draw):
    """A window and 20-80 events in its bounding box, skewed per axis."""
    region = draw(st.sampled_from(REGIONS))
    t_start = draw(st.sampled_from([0.0, 7.25, 1000.0]))
    t_end = t_start + draw(st.sampled_from([0.5, 1.0, 3.0]))
    bbox = region.bounding_box
    powers = [draw(st.sampled_from([0.4, 1.0, 2.5])) for _ in range(3)]
    rows = draw(
        st.lists(
            st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3),
            min_size=20,
            max_size=80,
        )
    )
    unit = np.array(rows) ** powers
    batch = EventBatch(
        t_start + (t_end - t_start) * unit[:, 0],
        bbox.x_min + bbox.width * unit[:, 1],
        bbox.y_min + bbox.height * unit[:, 2],
    )
    return batch, region, t_start, t_end


def seeded_batch(seed, n=120, *, t_start=0.0, x_min=0.0, y_min=0.0):
    """A skewed batch on the unit window, moved to ``(t_start, x_min, y_min)``."""
    rng = np.random.default_rng(seed)
    return EventBatch(
        t_start + rng.random(n),
        x_min + rng.random(n) ** 0.6,
        y_min + rng.random(n) ** 1.7,
    )


#: ``float.hex`` of theta fitted to ``seeded_batch(20150413)`` moved to the
#: cell [6, 7] x [2, 3] at t = 1000 (6 Newton steps from the flat start).
PINNED_MLE_THETA = [
    "-0x1.2a4726b7ac6f9p+15",
    "0x1.2bb11a551616ap+5",
    "0x1.503698cd8efe1p+7",
    "-0x1.b5519cbe6db90p+6",
]


class TestNewtonMle:
    @settings(max_examples=150, deadline=None)
    @given(mle_fits())
    def test_converged_means_feasible_stationary_and_no_worse_than_lbfgsb(self, fit):
        batch, region, t_start, t_end = fit
        result = fit_linear_intensity_mle(batch, region, t_start, t_end)
        assert result.iterations <= 25
        assert np.all(np.isfinite(result.theta))
        if not result.converged:
            return
        min_rate, decrement, log_likelihood = certificate(
            result.theta, batch, region, t_start, t_end
        )
        assert min_rate > 0
        assert decrement <= 1e-8
        assert result.log_likelihood == pytest.approx(log_likelihood, rel=1e-9, abs=1e-9)
        theta, success = mle_by_lbfgsb(batch, region, t_start, t_end)
        # Only a feasible theta has a likelihood: the oracle's clamped
        # objective scores a negative-rate event at log(floor) while the
        # negative region still subtracts from the compensator.
        oracle = certificate(theta, batch, region, t_start, t_end)[2]
        if success and np.isfinite(oracle):
            assert log_likelihood >= oracle - 1e-9 * max(1.0, abs(oracle))

    def test_seeded_skewed_batches_all_converge(self):
        # The certificate test is vacuous on fits that do not converge;
        # ordinary batches (events all over the window) always must.
        for seed in range(40):
            batch = seeded_batch(seed, n=30 + 5 * seed)
            result = fit_linear_intensity_mle(batch, UNIT, 0.0, 1.0)
            assert result.converged, seed
            assert result.iterations <= 12, seed
            assert result.intensity.theta == result.theta

    @pytest.mark.parametrize(
        "shift", [(1e3, 0.0, 0.0), (1e6, 0.0, 0.0), (0.0, 250.0, -4000.0), (1e6, -30.5, 7e3)]
    )
    def test_fitted_rates_do_not_depend_on_where_the_window_sits(self, shift):
        dt, dx, dy = shift
        for seed in range(5):
            base = seeded_batch(seed)
            moved = seeded_batch(seed, t_start=dt, x_min=dx, y_min=dy)
            here = fit_linear_intensity_mle(base, UNIT, 0.0, 1.0)
            there = fit_linear_intensity_mle(
                moved, Rectangle(dx, dy, dx + 1.0, dy + 1.0), dt, dt + 1.0
            )
            assert here.converged and there.converged
            assert there.iterations == here.iterations
            # 1e-9 of the batch's largest rate: handing theta back uncentred
            # costs an ulp of slope x 1e6 (~1e-8 absolute) at t = 1e6.
            rates = here.intensity.rate(base.t, base.x, base.y)
            assert there.intensity.rate(moved.t, moved.x, moved.y) == pytest.approx(
                rates, rel=0.0, abs=1e-9 * rates.max()
            )
            assert there.log_likelihood == pytest.approx(here.log_likelihood, rel=1e-9)

    def test_infeasible_start_falls_back_to_the_flat_rate(self):
        batch = seeded_batch(3)
        default = fit_linear_intensity_mle(batch, UNIT, 0.0, 1.0)
        for start in [(-5.0, 0.0, 0.0, 0.0), (10.0, 0.0, -400.0, 0.0), (0.0,) * 4]:
            result = fit_linear_intensity_mle(batch, UNIT, 0.0, 1.0, initial_theta=start)
            assert bits(result.theta) == bits(default.theta)
            assert result.iterations == default.iterations

    def test_feasible_start_is_used(self):
        batch = seeded_batch(3)
        default = fit_linear_intensity_mle(batch, UNIT, 0.0, 1.0)
        assert default.iterations > 2
        # Restarted at the maximum there is nothing left to do ...
        warm = fit_linear_intensity_mle(
            batch, UNIT, 0.0, 1.0, initial_theta=default.theta
        )
        assert warm.converged and warm.iterations == 0
        assert warm.theta == pytest.approx(default.theta, rel=1e-12)
        # ... and from any other feasible point it ends at the same maximum.
        other = fit_linear_intensity_mle(
            batch, UNIT, 0.0, 1.0, initial_theta=(300.0, 10.0, -20.0, 5.0)
        )
        assert other.converged
        assert other.theta == pytest.approx(default.theta, rel=1e-6)
        assert other.log_likelihood == pytest.approx(default.log_likelihood, abs=1e-8)

    def test_degenerate_batches_are_results_not_exceptions(self):
        rng = np.random.default_rng(8)
        for batch in [
            EventBatch.from_rows([(0.5, 0.5, 0.5)]),
            EventBatch.from_rows([(0.1, 0.2, 0.3), (0.5, 0.5, 0.9), (0.9, 0.1, 0.4)]),
            EventBatch(rng.random(30), np.full(30, 0.3), np.full(30, 0.7)),
            EventBatch(rng.random(40), np.linspace(0, 1, 40), np.linspace(0, 1, 40)),
        ]:
            result = fit_linear_intensity_mle(batch, UNIT, 0.0, 1.0)
            assert not result.converged
            assert result.iterations <= 25
            assert np.all(np.isfinite(result.theta))

    def test_pinned_theta_of_one_seeded_fit(self):
        # The MLE path's golden: no BLAS or LAPACK call sits between the
        # columns and theta, so every CI python must print these bits.
        batch = seeded_batch(20150413, t_start=1000.0, x_min=6.0, y_min=2.0)
        result = fit_linear_intensity_mle(
            batch, Rectangle(6.0, 2.0, 7.0, 3.0), 1000.0, 1001.0
        )
        assert result.converged
        assert result.iterations == 6
        assert [v.hex() for v in result.theta] == PINNED_MLE_THETA


class TestUnboundedLikelihood:
    """Events confined to one half of a cell: no maximum, no MLE, no silence."""

    CELL = Rectangle(6.0, 6.0, 8.0, 8.0)

    def half_cell_batch(self):
        # The window's centroid (y = 7) lies outside the events' convex
        # hull (y < 6.84): raising theta along -y grows the likelihood
        # without bound.
        rng = np.random.default_rng(91)
        return EventBatch(
            40.0 + rng.random(91), 6.0 + 2.0 * rng.random(91), 6.0 + 0.84 * rng.random(91)
        )

    def test_fit_reports_non_convergence(self):
        result = fit_linear_intensity_mle(self.half_cell_batch(), self.CELL, 40.0, 41.0)
        assert not result.converged
        assert result.iterations <= 25
        assert np.all(np.isfinite(result.theta))
        assert np.isfinite(result.log_likelihood)

    def test_flatten_falls_back_to_the_constant_rate_on_both_walks(self):
        events = self.half_cell_batch()
        items = [
            SensorTuple(
                tuple_id=i, attribute="rain", t=float(t), x=float(x), y=float(y),
                value=True, sensor_id=i,
            )
            for i, (t, x, y) in enumerate(zip(events.t, events.x, events.y))
        ]
        walk, kernel = (
            FlattenOperator(5.0, region=self.CELL, rng=np.random.default_rng(4))
            for _ in range(2)
        )
        for item in items:
            walk.accept(item)
        walk.flush()
        mask = kernel.process_batch_mask(batch_of(items))
        assert [r.estimator for r in walk.reports] == ["constant"]
        assert walk.reports == kernel.reports
        assert int(np.count_nonzero(mask)) == walk.reports[0].retained
        # A batch that does cover the cell is flattened by its fit.
        spread = batch_of(
            [
                SensorTuple(
                    tuple_id=i, attribute="rain", t=40.0 + u, x=6.0 + 2.0 * v,
                    y=6.0 + 2.0 * w, value=True, sensor_id=i,
                )
                for i, (u, v, w) in enumerate(np.random.default_rng(5).random((91, 3)).tolist())
            ]
        )
        kernel.process_batch_mask(spread)
        assert kernel.reports[-1].estimator == "mle"


# ----------------------------------------------------------------------------
# Lockstep Newton over segments == each fit alone
# ----------------------------------------------------------------------------


def newton_fit_alone(batch, region, t_start, t_end, *, initial_theta=None):
    """The Newton fit of one batch as it was written before the lockstep
    solve: the oracle.

    The per-fit body, verbatim, that ``fit_linear_intensity_mle_segments``
    runs in lockstep; its constants are this module's names, so a test
    can lower the caps on both sides.
    """
    region = as_region(region)
    if batch.is_empty:
        raise EstimationError("cannot estimate an intensity from an empty batch")
    if t_end <= t_start:
        raise EstimationError("time window must have positive length")

    volume, t_mid, cx, cy = _window_centroid(region, t_start, t_end)
    u = batch.t - t_mid
    v = batch.x - cx
    w = batch.y - cy

    phi = (len(batch) / volume, 0.0, 0.0, 0.0)
    rate = np.full(len(batch), phi[0])
    if initial_theta is not None:
        given = np.asarray(initial_theta, dtype=float)
        if given.shape != (4,):
            raise EstimationError("initial theta must have four components")
        s0, s1, s2, s3 = map(float, given)
        start = (((s0 + t_mid * s1) + cx * s2) + cy * s3, s1, s2, s3)
        start_rate = _linear_rate(*start, u, v, w)
        if start_rate.min() > _RATE_FLOOR:
            phi, rate = start, start_rate
    log_likelihood = float(np.log(rate).sum()) - volume * phi[0]

    converged = False
    iterations = 0
    while True:
        # Gradient sum(f_i / rate_i) - integral(f) and the ten entries of
        # sum(f_i f_i^T / rate_i^2), f = (1, u, v, w): plain sums of 1-D
        # products, never a BLAS call (its rounding is build-dependent).
        r = 1.0 / rate
        ur = u * r
        vr = v * r
        wr = w * r
        gradient = (
            float(r.sum()) - volume,
            float(ur.sum()),
            float(vr.sum()),
            float(wr.sum()),
        )
        hessian = (
            float((r * r).sum()),
            float((ur * r).sum()),
            float((vr * r).sum()),
            float((wr * r).sum()),
            float((ur * ur).sum()),
            float((ur * vr).sum()),
            float((ur * wr).sum()),
            float((vr * vr).sum()),
            float((vr * wr).sum()),
            float((wr * wr).sum()),
        )
        direction = _solve_spd_4x4(hessian, gradient)
        if direction is None:
            break
        g0, g1, g2, g3 = gradient
        d0, d1, d2, d3 = direction
        decrement = ((g0 * d0 + g1 * d1) + g2 * d2) + g3 * d3
        if not decrement >= 0.0:
            break
        if decrement <= _NEWTON_TOLERANCE:
            converged = True
            break
        if iterations == _NEWTON_MAX_ITERATIONS:
            break

        # Fraction-to-the-boundary rule: event i reaches the floor at step
        # 1 / shrink_i, and a step covers at most 0.95 of the nearest such
        # distance; then Armijo backtracking on the log-likelihood.
        slope = _linear_rate(*direction, u, v, w)
        shrink = float((-slope / (rate - _RATE_FLOOR)).max())
        step = 1.0 if shrink <= _BOUNDARY_FRACTION else _BOUNDARY_FRACTION / shrink
        for _ in range(_MAX_HALVINGS):
            trial = (
                phi[0] + step * d0,
                phi[1] + step * d1,
                phi[2] + step * d2,
                phi[3] + step * d3,
            )
            trial_rate = _linear_rate(*trial, u, v, w)
            if trial_rate.min() > _RATE_FLOOR:
                trial_likelihood = float(np.log(trial_rate).sum()) - volume * trial[0]
                if trial_likelihood >= log_likelihood + _ARMIJO * step * decrement:
                    break
            step *= 0.5
        else:
            break
        phi, rate, log_likelihood = trial, trial_rate, trial_likelihood
        iterations += 1

    theta = (((phi[0] - phi[1] * t_mid) - phi[2] * cx) - phi[3] * cy, phi[1], phi[2], phi[3])
    return EstimationResult(
        intensity=LinearIntensity.from_theta(theta),
        theta=theta,
        log_likelihood=log_likelihood,
        converged=converged,
        iterations=iterations,
    )


def segment_rows(positions, arrays, lengths):
    """The rows of the consecutive segments at ``positions``, per array.

    ``lengths`` are the lengths of the segments the arrays hold, in order.
    """
    flags = np.zeros(len(lengths), dtype=bool)
    flags[positions] = True
    rows = np.repeat(flags, lengths)
    return [array[rows] for array in arrays]


def newton_lockstep_unblocked(
    t: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    starts: Sequence[int],
    windows: Sequence[Tuple[object, float, float]],
    *,
    initial_thetas: Optional[Sequence[Optional[Sequence[float]]]] = None,
) -> List[EstimationResult]:
    """The lockstep Newton solve as it was before it worked a block of rows
    at a time: the oracle for :func:`fit_linear_intensity_mle_segments`.

    Verbatim but for its name and this docstring: the segments are
    consecutive rows of one set of columns, and the rows of every
    unfinished segment are worked on at once, compacted by
    :func:`segment_rows` whenever a segment stops or a trial is accepted.
    Its constants are this module's names, so a test can lower the caps
    on both sides.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    edges = [int(start) for start in starts] + [t.shape[0]]
    count = len(windows)
    if len(edges) != count + 1:
        raise EstimationError("need exactly one window per segment")
    if initial_thetas is None:
        initial_thetas = [None] * count
    elif len(initial_thetas) != count:
        raise EstimationError("need one initial theta (or None) per segment")
    lengths = [stop - start for start, stop in zip(edges, edges[1:])]
    regions = [as_region(region) for region, _t_start, _t_end in windows]
    if any(length <= 0 for length in lengths):
        raise EstimationError("cannot estimate an intensity from an empty batch")
    if any(t_end <= t_start for _region, t_start, t_end in windows):
        raise EstimationError("time window must have positive length")
    givens = [
        None if theta is None else np.asarray(theta, dtype=float)
        for theta in initial_thetas
    ]
    if any(given is not None and given.shape != (4,) for given in givens):
        raise EstimationError("initial theta must have four components")
    centres = [
        _window_centroid(region, t_start, t_end)
        for region, (_region, t_start, t_end) in zip(regions, windows)
    ]
    volumes = [volume for volume, _t_mid, _cx, _cy in centres]

    # Window-centred features: per-row centres, the same subtraction.
    _volume, t_mids, cxs, cys = np.array(centres, dtype=float).reshape(-1, 4).T
    u = t - np.repeat(t_mids, lengths)
    v = x - np.repeat(cxs, lengths)
    w = y - np.repeat(cys, lengths)

    # The flat start n / V, or a given start that is feasible at every event.
    phis = [(n / volume, 0.0, 0.0, 0.0) for n, volume in zip(lengths, volumes)]
    rate = np.repeat(np.array([phi[0] for phi in phis]), lengths)
    for index, given in enumerate(givens):
        if given is None:
            continue
        _volume, t_mid, cx, cy = centres[index]
        s0, s1, s2, s3 = map(float, given)
        start = (((s0 + t_mid * s1) + cx * s2) + cy * s3, s1, s2, s3)
        a, b = edges[index], edges[index + 1]
        start_rate = _linear_rate(*start, u[a:b], v[a:b], w[a:b])
        if start_rate.min() > _RATE_FLOOR:
            phis[index] = start
            rate[a:b] = start_rate
    log_rate = np.log(rate)
    likelihoods = [
        float(log_rate[a:b].sum()) - volume * phi[0]
        for a, b, volume, phi in zip(edges, edges[1:], volumes, phis)
    ]
    converged = [False] * count
    iterations = [0] * count

    # The segments still iterating, in row order; u, v, w and rate hold
    # only their rows.
    active = list(range(count))
    active_lengths = lengths
    while active:
        bounds = list(accumulate(active_lengths, initial=0))
        # Gradient sum(f_i / rate_i) - integral(f) and the ten entries of
        # sum(f_i f_i^T / rate_i^2), f = (1, u, v, w): plain sums of 1-D
        # products, never a BLAS call (its rounding is build-dependent).
        products = np.empty((14, rate.shape[0]))
        r = np.divide(1.0, rate, out=products[0])
        ur = np.multiply(u, r, out=products[1])
        vr = np.multiply(v, r, out=products[2])
        wr = np.multiply(w, r, out=products[3])
        np.multiply(r, r, out=products[4])
        np.multiply(ur, r, out=products[5])
        np.multiply(vr, r, out=products[6])
        np.multiply(wr, r, out=products[7])
        np.multiply(ur, ur, out=products[8])
        np.multiply(ur, vr, out=products[9])
        np.multiply(ur, wr, out=products[10])
        np.multiply(vr, vr, out=products[11])
        np.multiply(vr, wr, out=products[12])
        np.multiply(wr, wr, out=products[13])
        stepping = []
        directions = []
        decrements = []
        for position, index in enumerate(active):
            sums = products[:, bounds[position]:bounds[position + 1]].sum(axis=1).tolist()
            gradient = (sums[0] - volumes[index], sums[1], sums[2], sums[3])
            direction = _solve_spd_4x4(sums[4:], gradient)
            if direction is None:
                continue
            g0, g1, g2, g3 = gradient
            d0, d1, d2, d3 = direction
            decrement = ((g0 * d0 + g1 * d1) + g2 * d2) + g3 * d3
            if not decrement >= 0.0:
                continue
            if decrement <= _NEWTON_TOLERANCE:
                converged[index] = True
                continue
            if iterations[index] == _NEWTON_MAX_ITERATIONS:
                continue
            stepping.append(position)
            directions.append(direction)
            decrements.append(decrement)
        if len(stepping) < len(active):
            u, v, w, rate = segment_rows(stepping, (u, v, w, rate), active_lengths)
            active = [active[position] for position in stepping]
            active_lengths = [active_lengths[position] for position in stepping]
            bounds = list(accumulate(active_lengths, initial=0))
        if not active:
            break

        # Fraction-to-the-boundary rule: event i reaches the floor at step
        # 1 / shrink_i, and a step covers at most 0.95 of the nearest such
        # distance; then Armijo backtracking on the log-likelihood.
        slope = _linear_rate(
            *np.repeat(np.array(directions).T, active_lengths, axis=1), u, v, w
        )
        shrinks = np.maximum.reduceat(-slope / (rate - _RATE_FLOOR), bounds[:-1])
        steps = [
            1.0 if shrink <= _BOUNDARY_FRACTION else _BOUNDARY_FRACTION / shrink
            for shrink in shrinks.tolist()
        ]
        # Line search, the segments still searching side by side; ``search``
        # holds their positions in ``active`` and ``su, sv, sw`` their rows.
        search = list(range(len(active)))
        su, sv, sw = u, v, w
        search_lengths = active_lengths
        next_rate = rate
        for _ in range(_MAX_HALVINGS):
            trials = []
            for position in search:
                phi, step = phis[active[position]], steps[position]
                d0, d1, d2, d3 = directions[position]
                trials.append(
                    (phi[0] + step * d0, phi[1] + step * d1, phi[2] + step * d2, phi[3] + step * d3)
                )
            trial_rate = _linear_rate(
                *np.repeat(np.array(trials).T, search_lengths, axis=1), su, sv, sw
            )
            search_bounds = list(accumulate(search_lengths, initial=0))
            feasible = np.minimum.reduceat(trial_rate, search_bounds[:-1]) > _RATE_FLOOR
            # Rows of an infeasible trial take the log of non-positive
            # rates; their sums are never used.
            with np.errstate(divide="ignore", invalid="ignore"):
                log_trial = np.log(trial_rate)
            if next_rate is rate:
                # The first trial covers every active row: accepted
                # segments' rows are already in place.
                next_rate = trial_rate
            unaccepted = []
            for slot, position in enumerate(search):
                index = active[position]
                a, b = search_bounds[slot], search_bounds[slot + 1]
                if feasible[slot]:
                    trial = trials[slot]
                    trial_likelihood = float(log_trial[a:b].sum()) - volumes[index] * trial[0]
                    if trial_likelihood >= (
                        likelihoods[index] + _ARMIJO * steps[position] * decrements[position]
                    ):
                        phis[index] = trial
                        likelihoods[index] = trial_likelihood
                        iterations[index] += 1
                        if next_rate is not trial_rate:
                            next_rate[bounds[position]:bounds[position + 1]] = trial_rate[a:b]
                        continue
                steps[position] *= 0.5
                unaccepted.append(slot)
            if len(unaccepted) < len(search):
                su, sv, sw = segment_rows(unaccepted, (su, sv, sw), search_lengths)
                search = [search[slot] for slot in unaccepted]
                search_lengths = [search_lengths[slot] for slot in unaccepted]
            if not search:
                break
        # A segment whose line search failed stops here, unconverged.
        rate = next_rate
        if search:
            failed = set(search)
            alive = [position for position in range(len(active)) if position not in failed]
            u, v, w, rate = segment_rows(alive, (u, v, w, rate), active_lengths)
            active = [active[position] for position in alive]
            active_lengths = [active_lengths[position] for position in alive]

    results = []
    for index, (_volume, t_mid, cx, cy) in enumerate(centres):
        p0, p1, p2, p3 = phis[index]
        theta = (((p0 - p1 * t_mid) - p2 * cx) - p3 * cy, p1, p2, p3)
        results.append(
            EstimationResult(
                intensity=LinearIntensity.from_theta(theta),
                theta=theta,
                log_likelihood=likelihoods[index],
                converged=converged[index],
                iterations=iterations[index],
            )
        )
    return results


def fit_bits(result):
    """Everything a fit reports, exactly: theta and log-likelihood as hex."""
    return (
        [value.hex() for value in result.theta],
        result.log_likelihood.hex(),
        result.converged,
        result.iterations,
    )


def cap_batch():
    """60 events on the unit window left of its centroid, x < 0.5, whose
    Newton iterates run into the 25-step cap (found by a seed search)."""
    rng = np.random.default_rng(2361)
    return EventBatch(rng.random(60) ** 0.5, 0.5 * rng.random(60), rng.random(60) ** 0.5)


#: numpy's pairwise sum works in blocks of 8 inside blocks of 128: the edges
newton_lengths = st.one_of(
    st.sampled_from([4, 7, 8, 9, 127, 128, 129, 255, 256, 257]), st.integers(4, 400)
)


@st.composite
def newton_segments(draw):
    """One segment: its events and its window.

    ``spread`` and ``skewed`` events cover the window and converge;
    ``corner`` events leave the window's centroid outside their hull (no
    maximum); ``same_time`` events share one timestamp and ``nan`` events
    carry one NaN coordinate (both singular); ``cap`` is :func:`cap_batch`.
    """
    kind = draw(st.sampled_from(["spread", "skewed", "corner", "same_time", "nan", "cap"]))
    if kind == "cap":
        return cap_batch(), (UNIT, 0.0, 1.0)
    length = draw(newton_lengths)
    region = draw(st.sampled_from(REGIONS))
    t_start = draw(st.sampled_from([0.0, 7.25, 1000.0]))
    t_end = t_start + draw(st.sampled_from([0.5, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = rng.random((length, 3))
    if kind == "skewed":
        unit **= rng.choice([0.4, 1.0, 2.5], 3)
    elif kind == "corner":
        unit[:, 1:] *= 0.3
    elif kind == "same_time":
        unit[:, 0] = 0.5
    bbox = region.bounding_box
    t = t_start + (t_end - t_start) * unit[:, 0]
    x = bbox.x_min + bbox.width * unit[:, 1]
    y = bbox.y_min + bbox.height * unit[:, 2]
    if kind == "nan":
        (x, y)[int(rng.integers(2))][rng.integers(length)] = np.nan
    return EventBatch(t, x, y), (region, t_start, t_end)


def lockstep(segments):
    """:func:`fit_linear_intensity_mle_segments` over ``(batch, window)`` pairs,
    each segment its own batch."""
    return fit_linear_intensity_mle_segments(
        [batch for batch, _window in segments],
        [(index, 0, len(batch)) for index, (batch, _window) in enumerate(segments)],
        [window for _batch, window in segments],
    )


class TestLockstepNewton:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda count: st.lists(newton_segments(), min_size=count, max_size=count)
        ),
        st.sampled_from([(25, 30), (25, 30), (3, 30), (25, 1), (25, 0)]),
        st.randoms(use_true_random=False),
    )
    def test_every_segment_is_its_fit_alone(self, segments, caps, shuffler):
        # Lowered caps put segments that stop at the step cap, or fail the
        # line search, next to segments still iterating.
        max_iterations, max_halvings = caps
        with mock.patch.multiple(
            estimation, _NEWTON_MAX_ITERATIONS=max_iterations, _MAX_HALVINGS=max_halvings
        ), mock.patch.multiple(
            sys.modules[__name__],
            _NEWTON_MAX_ITERATIONS=max_iterations,
            _MAX_HALVINGS=max_halvings,
        ):
            alone = [fit_bits(newton_fit_alone(batch, *window)) for batch, window in segments]
            together = [fit_bits(result) for result in lockstep(segments)]
            assert together == alone
            # Neither the other segments nor their order matter.
            order = list(range(len(segments)))
            shuffler.shuffle(order)
            permuted = lockstep([segments[i] for i in order])
            assert [fit_bits(result) for result in permuted] == [alone[i] for i in order]
            kept = order[: max(1, len(order) // 2)]
            reduced = lockstep([segments[i] for i in sorted(kept)])
            assert [fit_bits(result) for result in reduced] == [alone[i] for i in sorted(kept)]

    def test_the_layout_covers_every_outcome(self):
        # The strategy's kinds end in all four ways a fit ends.
        rng = np.random.default_rng(0)
        unit = rng.random((100, 3))
        spread = EventBatch(unit[:, 0], unit[:, 1], unit[:, 2])
        corner = EventBatch(unit[:, 0], 0.3 * unit[:, 1], 0.3 * unit[:, 2])
        segments = [(spread, (UNIT, 0.0, 1.0)), (corner, (UNIT, 0.0, 1.0)), (cap_batch(), (UNIT, 0.0, 1.0))]
        converged, unbounded, capped = lockstep(segments)
        assert converged.converged
        assert not unbounded.converged and unbounded.iterations < 25
        assert not capped.converged and capped.iterations == 25
        with mock.patch.object(estimation, "_MAX_HALVINGS", 0):
            failed = lockstep(segments)
        assert [(r.converged, r.iterations) for r in failed] == [(False, 0)] * 3

    def test_one_segment_is_the_public_fit(self):
        batch = seeded_batch(20150413, t_start=1000.0, x_min=6.0, y_min=2.0)
        window = (Rectangle(6.0, 2.0, 7.0, 3.0), 1000.0, 1001.0)
        (result,) = lockstep([(batch, window)])
        assert [v.hex() for v in result.theta] == PINNED_MLE_THETA
        assert fit_bits(result) == fit_bits(fit_linear_intensity_mle(batch, *window))
        assert fit_bits(result) == fit_bits(newton_fit_alone(batch, *window))

    def test_initial_thetas_are_per_segment(self):
        batch = seeded_batch(3)
        default = fit_linear_intensity_mle(batch, UNIT, 0.0, 1.0)
        starts = [None, default.theta, (-5.0, 0.0, 0.0, 0.0)]
        # Three segments over the same rows.
        results = fit_linear_intensity_mle_segments(
            [batch], [(0, 0, len(batch))] * 3, [(UNIT, 0.0, 1.0)] * 3, initial_thetas=starts,
        )
        for result, start in zip(results, starts):
            expected = newton_fit_alone(batch, UNIT, 0.0, 1.0, initial_theta=start)
            assert fit_bits(result) == fit_bits(expected)
        assert results[1].iterations == 0

    @pytest.mark.parametrize(
        "starts, windows, initial_thetas, message",
        [
            ([0, 5], [(UNIT, 0.0, 1.0)], None, "one window per segment"),
            ([0, 5, 5], [(UNIT, 0.0, 1.0)] * 3, None, "empty batch"),
            ([0, 5], [(UNIT, 0.0, 1.0), (UNIT, 1.0, 1.0)], None, "positive length"),
            ([0, 5], [(UNIT, 0.0, 1.0)] * 2, [None], "one initial theta"),
            ([0, 5], [(UNIT, 0.0, 1.0)] * 2, [None, (1.0, 2.0)], "four components"),
        ],
    )
    def test_invalid_layouts_raise_before_any_fit(self, starts, windows, initial_thetas, message):
        batch = seeded_batch(1, n=10)
        table = [(0, a, z) for a, z in zip(starts, [*starts[1:], 10])]
        with pytest.raises(EstimationError, match=message):
            fit_linear_intensity_mle_segments(
                [batch], table, windows, initial_thetas=initial_thetas
            )


#: Starts a segment may be given: none, an infeasible one, a flat one.
NEWTON_STARTS = [None, None, (-5.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)]


@st.composite
def newton_layouts(draw):
    """Segments for one call: ``(batch, window, initial theta)`` triples.

    Mostly :func:`newton_segments`, or a run of tiny (4-8 row) segments;
    with lowered caps the fits stop at different steps.
    """
    if draw(st.booleans()):
        segments = draw(st.lists(newton_segments(), min_size=1, max_size=12))
    else:
        count = draw(st.integers(10, 60))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        segments = []
        for _ in range(count):
            unit = rng.random((int(rng.integers(4, 9)), 3))
            segments.append((EventBatch(*unit.T), (UNIT, 0.0, 1.0)))
    starts = draw(st.lists(st.sampled_from(NEWTON_STARTS), min_size=len(segments), max_size=len(segments)))
    return [(batch, window, start) for (batch, window), start in zip(segments, starts)]


class TestBlockedNewton:
    """The solve a block of rows at a time == the solve over every row at once."""

    @settings(max_examples=60, deadline=None)
    @given(
        newton_layouts(),
        st.sampled_from([8, 64, 300, 4096]),
        st.sampled_from([(25, 30), (25, 30), (3, 30), (25, 1), (25, 0)]),
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
    )
    def test_blocks_are_the_unblocked_solve(self, layout, block, caps, batches, seed):
        # Small blocks put segments longer than a block next to blocks of
        # several; lowered caps stop segments at the step cap, or on a
        # failed line search, beside segments still iterating; the rows lie
        # in one or two batches among rows no segment covers.
        max_iterations, max_halvings = caps
        batches_, table = laid_out(
            [(batch.t, batch.x, batch.y) for batch, _window, _start in layout],
            np.random.default_rng(seed), batches=batches,
        )
        windows = [window for _batch, window, _start in layout]
        thetas = [start for _batch, _window, start in layout]
        lengths = [len(batch) for batch, _window, _start in layout]
        with mock.patch.multiple(
            estimation,
            _NEWTON_MAX_ITERATIONS=max_iterations,
            _MAX_HALVINGS=max_halvings,
            _NEWTON_BLOCK=block,
        ), mock.patch.multiple(
            sys.modules[__name__],
            _NEWTON_MAX_ITERATIONS=max_iterations,
            _MAX_HALVINGS=max_halvings,
        ):
            unblocked = newton_lockstep_unblocked(
                *(np.concatenate([getattr(batch, axis) for batch, _w, _s in layout]) for axis in "txy"),
                list(accumulate(lengths[:-1], initial=0)),
                windows,
                initial_thetas=thetas,
            )
            blocked = fit_linear_intensity_mle_segments(batches_, table, windows, initial_thetas=thetas)
        assert [fit_bits(result) for result in blocked] == [fit_bits(result) for result in unblocked]

    def test_a_segment_wider_than_the_block_is_a_block_alone(self):
        rng = np.random.default_rng(5)
        layout = [(EventBatch(*rng.random((n, 3)).T), (UNIT, 0.0, 1.0)) for n in (30, 5000, 9, 4100, 200)]
        lengths = [len(batch) for batch, _window in layout]
        unblocked = newton_lockstep_unblocked(
            *(np.concatenate([getattr(batch, axis) for batch, _window in layout]) for axis in "txy"),
            list(accumulate(lengths[:-1], initial=0)),
            [window for _batch, window in layout],
        )
        assert all(result.converged for result in unblocked)
        assert [fit_bits(result) for result in lockstep(layout)] == [
            fit_bits(result) for result in unblocked
        ]

    def test_the_working_memory_is_one_block(self):
        # 50 000 rows in 40 segments: the unblocked solve held ~300 B of
        # temporaries per row (~15 MB here); the blocked one holds one
        # block's scratch (18 rows) and at most one four-row temporary of
        # the block's width (the spread thetas, or a copy of the rows a
        # block closes up over), whatever the number of rows.
        rng = np.random.default_rng(11)
        unit = rng.random((50_000, 3))
        batch = EventBatch(10.0 + unit[:, 0], 4.0 + unit[:, 1], 2.0 + unit[:, 2])
        table = [(0, start, start + 1250) for start in range(0, 50_000, 1250)]
        windows = [(Rectangle(4.0, 2.0, 5.0, 3.0), 10.0, 11.0)] * 40
        fit_linear_intensity_mle_segments([batch], table[:1], windows[:1])  # warm caches
        tracemalloc.start()
        try:
            results = fit_linear_intensity_mle_segments([batch], table, windows)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(result.converged for result in results)
        block = 8 * estimation._NEWTON_BLOCK
        assert peak <= (18 + 4) * block + 64 * 1024, peak


class TestScipyStaysOut:
    def test_no_engine_entry_point_imports_scipy(self):
        # scipy.optimize + scipy.stats are ~75 MiB of RSS and ~1.2 s of
        # import; only the paper-facing homogeneity tests may pay that.
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro, repro.core, repro.serve, repro.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
