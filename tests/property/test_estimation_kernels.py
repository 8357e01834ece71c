"""Property tests pinning the two estimation kernels to their references.

``OnlineIntensityEstimator.observe_batch_fused`` (the plain-float SGD
kernel the engine runs) must land on exactly the bits of
``observe_batch`` (n x ``observe_event``), and
``fit_linear_intensity_least_squares`` (searchsorted + one bincount) on
exactly the bits of the per-box loop it replaced — kept here, under
``tests/``, as the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EstimationError
from repro.geometry import CompositeRegion, Rectangle, RectRegion
from repro.pointprocess import (
    EventBatch,
    OnlineIntensityEstimator,
    fit_linear_intensity_least_squares,
)
from repro.pointprocess.estimation import _log_likelihood

UNIT = Rectangle(0.0, 0.0, 1.0, 1.0)


def bits(values) -> bytes:
    """Exact float64 identity (NaN == NaN, -0.0 != 0.0)."""
    return np.asarray(values, dtype=float).tobytes()


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
    """One batch plus how to present it: dtype, slicing, window anchor."""
    rows = draw(
        st.lists(st.tuples(event_times, unit_coordinates, unit_coordinates), max_size=25)
    )
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
# Least-squares initialiser == the per-box loop
# ----------------------------------------------------------------------------


def least_squares_by_box_loop(batch, region, t_start, t_end, bins):
    """The initialiser as it was before the bincount rewrite: the oracle.

    One pass over every ``(t, x, y)`` box, six full-length comparisons and
    one overlap computation each.  Returns ``(theta, log_likelihood)``.
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
    return theta, _log_likelihood(theta, batch, region, t_start, t_end)


#: A rectangle, an L whose bounding box has an empty corner, and two
#: diagonal squares whose bounding box is half empty (at ``bins=2`` two of
#: the four spatial quadrats have zero overlap).
REGIONS = [
    RectRegion(Rectangle(0.0, 0.0, 1.0, 1.0)),
    RectRegion(Rectangle(-3.0, 2.0, 0.5, 2.7)),
    CompositeRegion((Rectangle(0.0, 0.0, 2.0, 1.0), Rectangle(0.0, 1.0, 1.0, 2.0))),
    CompositeRegion((Rectangle(0.0, 0.0, 1.0, 1.0), Rectangle(1.0, 1.0, 2.0, 2.0))),
]


@st.composite
def quadrat_fits(draw):
    region = draw(st.sampled_from(REGIONS))
    bins = draw(st.sampled_from([1, 2, 3, 4, 5]))
    t_start = draw(st.sampled_from([0.0, 7.25, 1000.0]))
    t_end = t_start + draw(st.sampled_from([0.5, 1.0, 3.0]))
    bbox = region.bounding_box

    def axis(lo, hi):
        # Exactly on an edge (interior, first, last), inside, or outside.
        span = hi - lo
        return st.one_of(
            st.sampled_from(np.linspace(lo, hi, bins + 1).tolist()),
            st.floats(min_value=lo, max_value=hi),
            st.floats(min_value=lo - span, max_value=hi + span),
        )

    rows = draw(
        st.lists(
            st.tuples(
                axis(t_start, t_end),
                axis(bbox.x_min, bbox.x_max),
                axis(bbox.y_min, bbox.y_max),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return EventBatch.from_rows(rows), region, t_start, t_end, bins


class TestLeastSquaresInitialiser:
    @settings(max_examples=120, deadline=None)
    @given(quadrat_fits())
    def test_matches_the_box_loop_exactly(self, fit):
        batch, region, t_start, t_end, bins = fit
        try:
            theta, log_likelihood = least_squares_by_box_loop(
                batch, region, t_start, t_end, bins
            )
        except EstimationError:
            with pytest.raises(EstimationError, match="occupied quadrats"):
                fit_linear_intensity_least_squares(
                    batch, region, t_start, t_end, bins=bins
                )
            return
        result = fit_linear_intensity_least_squares(
            batch, region, t_start, t_end, bins=bins
        )
        assert bits(result.theta) == bits(theta)
        assert bits(result.log_likelihood) == bits(log_likelihood)

    def test_too_few_quadrats_raises(self):
        # bins=1 is one box: never enough rows for four parameters.
        batch = EventBatch.from_rows([(0.1, 0.2, 0.3)] * 8)
        with pytest.raises(EstimationError, match="occupied quadrats"):
            fit_linear_intensity_least_squares(batch, UNIT, 0.0, 1.0, bins=1)

    def test_boundary_events_land_in_the_half_open_boxes(self):
        # [lo, hi) per axis: an event on the window's end, or on the
        # bounding box's upper edge, is in no box; one on the lower edge is.
        inside = [(0.0, 0.0, 0.0)] * 5 + [(0.5, 0.5, 0.5)] * 5
        outside = [(1.0, 0.5, 0.5), (0.5, 1.0, 0.5), (0.5, 0.5, 1.0), (-0.1, 0.5, 0.5)]
        with_outside = fit_linear_intensity_least_squares(
            EventBatch.from_rows(inside + outside), UNIT, 0.0, 1.0
        )
        without = fit_linear_intensity_least_squares(
            EventBatch.from_rows(inside), UNIT, 0.0, 1.0
        )
        assert bits(with_outside.theta) == bits(without.theta)
